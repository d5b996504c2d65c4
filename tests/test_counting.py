import itertools
import math
import time
import tracemalloc
from collections.abc import ValuesView
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpfree import counting
from gpfree.counting import (
    NormCount,
    count_norm_exact,
    count_upto,
    factorize,
    is_rational_prime,
    odd_divisor_sum,
    proportion_exact_ppower,
)
from gpfree.quaternion import enumerate_norm


def sigma_odd_reference(n):
    return sum(d for d in range(1, n + 1, 2) if n % d == 0)


def test_odd_divisor_sum_frozen():
    assert [odd_divisor_sum(n) for n in range(1, 13)] == [
        1, 1, 4, 1, 6, 4, 8, 1, 13, 6, 12, 4,
    ]
    assert odd_divisor_sum(360) == 78


@given(st.integers(min_value=1, max_value=4000))
def test_odd_divisor_sum_reference(n):
    assert odd_divisor_sum(n) == sigma_odd_reference(n)


def test_odd_divisor_sieve_matches_formula():
    counts = counting._norm_counts_upto(5000)
    assert len(counts) == 5001
    assert counts[1:] == [count_norm_exact(n) for n in range(1, 5001)]


def odd_divisor_sums_oracle(max_norm):
    """The sieve as a double loop: every odd divisor added to each odd multiple."""
    sums = [0] * (max_norm + 1)
    for d in range(1, max_norm + 1, 2):
        for multiple in range(d, max_norm + 1, 2 * d):
            sums[multiple] += d
    for n in range(2, max_norm + 1, 2):
        sums[n] = sums[n // 2]
    return sums


@pytest.mark.parametrize("max_norms", [range(1, 131), [5000]], ids=["1-130", "5000"])
def test_odd_divisor_sieve_matches_double_loop(max_norms):
    # the squares that start each slice and the block copies of even n
    # are where a small bound goes wrong
    for max_norm in max_norms:
        oracle = [24 * s for s in odd_divisor_sums_oracle(max_norm)]
        assert counting._norm_counts_upto(max_norm) == oracle


def is_prime_by_trial_division(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reference(n):
    pairs = list(factorize(n))
    assert math.prod(p**e for p, e in pairs) == n
    primes = [p for p, _ in pairs]
    assert primes == sorted(set(primes))
    assert all(e >= 1 for _, e in pairs)
    assert all(is_prime_by_trial_division(p) for p in primes)


def test_factorize_small_values():
    assert list(factorize(1)) == []
    assert list(factorize(2)) == [(2, 1)]
    assert list(factorize(360)) == [(2, 3), (3, 2), (5, 1)]
    assert list(factorize(2**31 - 1)) == [(2**31 - 1, 1)]


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorize_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        next(factorize(n))


def factorize_oracle(n):
    """Oracle for factorize: trial division by every odd number, with no prime table."""
    twos = (n & -n).bit_length() - 1
    if twos:
        yield 2, twos
        n >>= twos
    f = 3
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            yield f, e
        f += 2
    if n > 1:
        yield n, 1


# The last prime below the table's cap of 2**16 and the first two above it.
AROUND_CAP = (65521, 65537, 65539)


@pytest.fixture(params=[65537**2, 10**4], ids=["grown-large", "grown-small"])
def prime_table(request, monkeypatch):
    """factorize's prime table, reset to its start, then grown first by a large or a small n."""
    monkeypatch.setattr(counting, "_odd_prime_table", (3, [3]))
    list(factorize(request.param))


class TestFactorizeOracle:
    def test_every_n_to_20000(self, prime_table):
        for n in range(1, 20_001):
            assert list(factorize(n)) == list(factorize_oracle(n)), n

    def test_products_around_the_cap(self, prime_table):
        primes = (3, 251, 65519, *AROUND_CAP)
        values = [p * p for p in primes]
        values += [p * q for p in primes for q in primes if p < q]
        values += [p << k for p in primes for k in (1, 5, 16, 40)]
        values += [2**32 + d for d in range(-20, 21)]
        for n in values:
            assert list(factorize(n)) == list(factorize_oracle(n)), n

    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(min_value=1, max_value=10**11))
    def test_hypothesis_draws(self, prime_table, n):
        assert list(factorize(n)) == list(factorize_oracle(n))

    def test_table_grows_to_the_largest_root(self, monkeypatch):
        monkeypatch.setattr(counting, "_odd_prime_table", (3, [3]))
        root = math.isqrt(10**9 + 7)
        list(factorize(10**9 + 7))
        assert counting._odd_prime_table == (root, counting._primes_upto(root)[1:])
        list(factorize(10**6 + 3))
        assert counting._odd_prime_table[0] == root
        list(factorize(65537**2))
        assert counting._odd_prime_table[0] == 2**16
        assert counting._odd_prime_table[1][-1] == 65521

    def test_suspended_generator_keeps_its_table(self, monkeypatch):
        # A generator that started on a short table finishes on it, with
        # the same pairs, while another call grows the table.
        monkeypatch.setattr(counting, "_odd_prime_table", (3, [3]))
        n = 3 * 5 * 7 * 11 * 13 * 97
        scan = factorize(n)
        head = [next(scan), next(scan)]
        list(factorize(65539**2))
        assert head + list(scan) == list(factorize_oracle(n))

    def test_smaller_table_published_while_sieving(self, monkeypatch):
        # Another thread may publish a smaller table while this call
        # sieves; the call still trial-divides by the table it built.
        sieve = counting._primes_upto

        def racing_sieve(limit):
            counting._odd_prime_table = (5, [3, 5])
            return sieve(limit)

        monkeypatch.setattr(counting, "_primes_upto", racing_sieve)
        for n in (997 * 1009, 11 * 13 * 65537, 65521 * 65537, 3 * 65539**2, 2**32 + 15):
            monkeypatch.setattr(counting, "_odd_prime_table", (3, [3]))
            root = math.isqrt(n)
            assert counting._odd_primes_covering(root) == sieve(min(root, 2**16))[1:]
            monkeypatch.setattr(counting, "_odd_prime_table", (3, [3]))
            assert list(factorize(n)) == list(factorize_oracle(n)), n


class TestLargePrimeCofactor:
    # Past the table, a cofactor from 2**32 on is proved prime below the
    # Miller-Rabin bound, or proved composite and split by Pollard's rho,
    # and each part is split the same way by _split_large.
    def test_mersenne_61_counts_fast(self):
        start = time.perf_counter()
        assert count_norm_exact(2**61 - 1) == 24 * 2**61
        assert time.perf_counter() - start < 1

    def test_product_of_two_large_primes_counts_fast(self):
        # 4.95e27, past the Miller-Rabin bound, but proved composite by it
        start = time.perf_counter()
        n = (2**31 - 1) * (2**61 - 1)
        assert count_norm_exact(n) == 24 * 2**31 * 2**61
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n, pairs", [
        (3 * (2**61 - 1), [(3, 1), (2**61 - 1, 1)]),
        (65537 * (2**61 - 1), [(65537, 1), (2**61 - 1, 1)]),
        (2**5 * 3**2 * 65539 * (2**61 - 1), [(2, 5), (3, 2), (65539, 1), (2**61 - 1, 1)]),
        # a strong pseudoprime to the bases 2..23, factored past the table
        (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
        ((2**31 - 1) * (2**61 - 1), [(2**31 - 1, 1), (2**61 - 1, 1)]),
        ((2**31 - 1) ** 2, [(2**31 - 1, 2)]),
        (65537 * 65539 * 65543, [(65537, 1), (65539, 1), (65543, 1)]),
        (65537**3, [(65537, 3)]),
        (3 * 65537**5, [(3, 1), (65537, 5)]),
        ((2**31 - 1) ** 2 * (2**61 - 1), [(2**31 - 1, 2), (2**61 - 1, 1)]),
        # splits that leave a composite part, split again in turn
        ((65537 * 65539) ** 2, [(65537, 2), (65539, 2)]),
        (65537**2 * 65539, [(65537, 2), (65539, 1)]),
        (65537 * 65539 * (2**61 - 1), [(65537, 1), (65539, 1), (2**61 - 1, 1)]),
    ])
    def test_factorizations(self, n, pairs):
        assert list(factorize(n)) == pairs

    @pytest.mark.parametrize("n, pairs", [
        ((65537 * 65539) ** 2, [(65537, 2), (65539, 2)]),
        (65537 * 65539 * 65543, [(65537, 1), (65539, 1), (65543, 1)]),
        (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
        ((2**31 - 1) ** 2 * (2**61 - 1), [(2**31 - 1, 2), (2**61 - 1, 1)]),
    ])
    def test_split_large_never_calls_factorize(self, monkeypatch, n, pairs):
        # No part of a split can have a prime factor below 2**16, so
        # _split_large recurses on itself, not through trial division.
        def no_factorize(m):
            raise AssertionError(f"factorize({m}) called")

        monkeypatch.setattr(counting, "factorize", no_factorize)
        assert counting._split_large(n) == pairs

    @pytest.mark.parametrize("n", [
        65537 * 65539, 65537**3, 3825123056546413051, 318665857834031151167461,
        (2**31 - 1) * (2**61 - 1), 1000003 * 1000033 * 1000037,
    ])
    def test_rho_finds_a_proper_divisor(self, n):
        d = counting._rho_divisor(n)
        assert 1 < d < n and n % d == 0

    @pytest.mark.parametrize("n", [
        3825123056546413051,  # strong pseudoprime to the bases 2..23
        318665857834031151167461,  # strong pseudoprime to the bases 2..37
        (2**31 - 1) * (2**61 - 1),
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        pairs = counting._split_large(n)
        assert len(pairs) > 1
        assert math.prod(p**e for p, e in pairs) == n

    def test_primes_in_range(self):
        for p in (2**61 - 1, 2**64 - 59, 2**80 - 65):
            assert counting._split_large(p) == [(p, 1)]

    @pytest.mark.parametrize("n", [2**31 - 1, 4294967291, 2**89 - 1])
    def test_primes_outside_range_are_left_to_trial_division(self, monkeypatch, n):
        # Below 2**32 the table has decided, so _split_large returns n
        # whole untested; past the bound Miller-Rabin proves nothing, and
        # _split_large refuses.
        tested = []
        probable_prime = counting._probable_prime
        monkeypatch.setattr(counting, "_probable_prime",
                            lambda m: tested.append(m) or probable_prime(m))
        if n < 2**32:
            assert counting._split_large(n) == [(n, 1)]
            assert list(factorize(n)) == [(n, 1)]
            assert tested == []
        else:
            with pytest.raises(ValueError, match=f"cannot factor {n}: it is past"):
                counting._split_large(n)
            assert tested == [n]

    @pytest.mark.parametrize("n, cofactor", [
        (2**89 - 1, 2**89 - 1), (2**107 - 1, 2**107 - 1), (3 * 5**7 * (2**89 - 1), 2**89 - 1),
    ])
    def test_unproved_cofactor_past_the_bound_is_refused(self, n, cofactor):
        # Mersenne primes past the bound pass every base, which proves
        # nothing there; the refusal names the cofactor.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cannot factor {cofactor}:"):
            list(factorize(n))
        assert time.perf_counter() - start < 1

    def test_composite_past_the_rho_budget_is_refused(self):
        # Rho would need about 2**30 steps to reach 2**61 - 1; the budget
        # of 2**20 ends the search, and the refusal names the cofactor.
        n = (2**89 - 1) * (2**61 - 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cannot factor {n}: Pollard's rho"):
            list(factorize(n))
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("n", [(2**127 - 1) * (2**521 - 1), (2**607 - 1) * (2**1279 - 1)])
    def test_large_composite_is_refused_within_a_second(self, n):
        # A step costs more the larger n is, so the budget falls with n's
        # bit length: 648 and 1886 bits here.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cannot factor {n}: Pollard's rho"):
            list(factorize(n))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n, cofactor", [
        (2**3217 - 1, 2**3217 - 1),
        (3**5 * (2**4423 - 1), 2**4423 - 1),
        ((2**1279 - 1) * (2**2203 - 1), (2**1279 - 1) * (2**2203 - 1)),
        ((2**4423 - 1) * (2**9689 - 1), (2**4423 - 1) * (2**9689 - 1)),
    ])
    def test_cofactor_past_2400_bits_is_refused_untried(self, n, cofactor):
        # Miller-Rabin alone would take over a second on each prime here,
        # for a refusal either way.
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"cannot factor {cofactor}: it has"):
            list(factorize(n))
        assert time.perf_counter() - start < 1

    def test_square_past_2400_bits_is_still_split(self):
        assert list(factorize((2**61 - 1) ** 64)) == [(2**61 - 1, 64)]

    @pytest.mark.parametrize("bits", [2, 149, 150, 151, 300, 600, 1200, 2400])
    def test_rho_budget_falls_past_150_bits(self, bits):
        budget = counting._rho_budget((1 << bits) - 1)
        assert budget == (2**20 if bits <= 150 else 2**20 * 150**2 // bits**2)

    def test_matches_a_segment_sieve_above_2_32(self):
        # every odd n in [2**32, 2**32 + 20000) against a sieve of that
        # segment by the primes up to 2**16, which covers its square roots:
        # each p divides out of its multiples, and what is left is 1 or prime
        low, size = 2**32, 20_000
        rest = list(range(low, low + size))
        pairs = [[] for _ in range(size)]
        for p in counting._primes_upto(2**16):
            for i in range(-low % p, size, p):
                e = 0
                while rest[i] % p == 0:
                    rest[i] //= p
                    e += 1
                pairs[i].append((p, e))
        for n in range(low + 1, low + size, 2):
            i = n - low
            assert list(factorize(n)) == pairs[i] + [(rest[i], 1)] * (rest[i] > 1), n


def test_is_rational_prime_around_the_cap():
    assert is_rational_prime(65521)
    assert not is_rational_prime(65535)
    assert is_rational_prime(65537)
    assert is_rational_prime(2**31 - 1)


def test_is_rational_prime_matches_sieve():
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_rational_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]
    assert not any(is_rational_prime(n) for n in (0, 1, -1, -2, -7))


def test_count_norm_exact_frozen():
    assert [count_norm_exact(n) for n in range(1, 13)] == [
        24, 24, 96, 24, 144, 96, 192, 24, 312, 144, 288, 96,
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 16, 30, 64, 97])
def test_count_matches_enumeration(n):
    assert count_norm_exact(n) == len(enumerate_norm(n))


def test_count_upto_matches_per_norm_sum():
    running = 0
    for n in range(1, 301):
        running += count_norm_exact(n)
        assert count_upto(n) == running
    assert count_upto(100) == 99336


def count_upto_linear(max_norm):
    """The cofactor sum of count_upto, one term per m."""
    return 24 * sum(((max_norm // m + 1) // 2) ** 2 for m in range(1, max_norm + 1))


def test_count_upto_matches_linear_sum():
    assert [count_upto(n) for n in range(3001)] == [
        count_upto_linear(n) for n in range(3001)
    ]


@given(st.integers(min_value=0, max_value=50_000))
def test_count_upto_matches_linear_sum_far(n):
    assert count_upto(n) == count_upto_linear(n)


def test_count_upto_asymptotic():
    # leading term is pi^2 M^2
    ratio = count_upto(10_000) / (math.pi**2 * 10_000**2)
    assert 0.99 <= ratio <= 1.01


def test_count_upto_empty_range():
    assert count_upto(0) == 0


class TestNormCount:
    def test_build_consistency(self):
        table = NormCount.build(50)
        assert table.max_norm == 50
        for n in range(1, 51):
            assert table.per_norm[n] == count_norm_exact(n)
        assert table.cumulative[50] == count_upto(50)
        assert all(
            table.cumulative[n] == table.cumulative[n - 1] + table.per_norm[n]
            for n in range(2, 51)
        )


class TestNormCountMapping:
    @pytest.mark.parametrize("field", ["per_norm", "cumulative"])
    @pytest.mark.parametrize("norm", [0, 51, -1, "1"])
    def test_key_outside_norms(self, field, norm):
        mapping = getattr(NormCount.build(50), field)
        with pytest.raises(KeyError):
            mapping[norm]
        assert norm not in mapping
        assert mapping.get(norm) is None

    def test_matches_dict_oracle(self):
        table = NormCount.build(50)
        per_norm = {n: count_norm_exact(n) for n in range(1, 51)}
        cumulative = dict(zip(per_norm, itertools.accumulate(per_norm.values())))
        for mapping, oracle in [(table.per_norm, per_norm), (table.cumulative, cumulative)]:
            assert len(mapping) == 50
            assert list(mapping) == list(range(1, 51))
            assert list(mapping.keys()) == list(range(1, 51))
            assert list(mapping.values()) == list(oracle.values())
            assert list(mapping.items()) == list(oracle.items())
            assert mapping == oracle and dict(mapping) == oracle
            assert 1 in mapping and 50 in mapping

    def test_values_view_is_reusable(self):
        values = NormCount.build(5).per_norm.values()
        assert isinstance(values, ValuesView)
        assert list(values) == list(values) == [24, 24, 96, 24, 144]
        assert len(values) == 5 and 96 in values

    def test_read_only(self):
        table = NormCount.build(5)
        with pytest.raises(TypeError):
            table.per_norm[1] = 0
        with pytest.raises(TypeError):
            del table.cumulative[5]
        assert table.per_norm[1] == 24 and table.cumulative[5] == 312

    def test_build_memory_bound(self):
        # The two lists peak at about 8 MB; a dict with an entry per
        # norm for each table would take about 23 MB.
        tracemalloc.start()
        try:
            NormCount.build(10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10**6


class TestProportions:
    def test_contract_values(self):
        assert proportion_exact_ppower(2, 0) == Fraction(3, 4)
        assert proportion_exact_ppower(2, 1) == Fraction(3, 16)
        assert proportion_exact_ppower(3, 0) == Fraction(5, 9)
        assert proportion_exact_ppower(5, 0) == Fraction(19, 25)

    def test_exact_type(self):
        assert isinstance(proportion_exact_ppower(7, 3), Fraction)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_tail_sums_to_one(self, p):
        # closed-form geometric tail keeps the identity exact
        partial = sum(proportion_exact_ppower(p, n) for n in range(30))
        if p == 2:
            tail = Fraction(1, 4**30)
        else:
            tail = Fraction(p**31 - 1, (p - 1) * p**60)
        assert partial + tail == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            proportion_exact_ppower(4, 0)
        with pytest.raises(ValueError):
            proportion_exact_ppower(3, -1)

"""Density bounds, annuli verification, and the Rankin Euler product."""

import bisect
import decimal
import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpfree import checks, density
from gpfree.density import (
    DEFAULT_ANNULI,
    AnnuliSpec,
    DensityEstimate,
    lower_bound_density,
    rankin_apfree_contains,
    rankin_density,
    rankin_even_factor,
    rankin_gpfree_contains,
    upper_bound_density,
    verify_annuli_gp_free,
)


def has_ternary_two(n):
    while n:
        if n % 3 == 2:
            return True
        n //= 3
    return False


def prime_exponents(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


WIDENED = AnnuliSpec(interval_ratios=DEFAULT_ANNULI.interval_ratios[:-1] + ((5, 1),))


def annuli_scan_oracle(max_norm, spec):
    """verify_annuli_gp_free's scan as a loop over n, then over ratios k."""
    kept = density._kept_mask(max_norm, spec)
    for n in range(1, max_norm + 1):
        if not kept[n]:
            continue
        k = 2
        while n * k * k <= max_norm:
            if kept[n * k] and kept[n * k * k]:
                return False
            k += 1
    return True


def random_specs(seed, count):
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            lo = rng.randint(2, 64)
            pairs.append((lo, rng.randint(1, lo - 1)))
        specs.append(AnnuliSpec(tuple(pairs)))
    return specs


SCAN_SIZES = [48, 49, 2304, 5000, 10**5]
RANDOM_SPECS = random_specs(20, 12)


class TestBounds:
    def test_lower_bound_exact(self):
        lower = lower_bound_density()
        assert lower == Fraction(17665627, 18662400)
        assert f"{float(lower):.6f}" == "0.946589"

    def test_lower_bound_is_annuli_sum(self):
        total = sum(
            Fraction(1, hi * hi) - Fraction(1, lo * lo)
            for lo, hi in DEFAULT_ANNULI.interval_ratios
        )
        assert lower_bound_density() == total

    def test_upper_bound_exact(self):
        assert upper_bound_density() == Fraction(20, 21)
        assert f"{float(upper_bound_density()):.6f}" == "0.952381"
        assert upper_bound_density(1) == Fraction(61, 64)
        assert upper_bound_density(2) == Fraction(3901, 4096)

    def test_upper_bound_monotone_to_limit(self):
        values = [upper_bound_density(t) for t in range(1, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > Fraction(20, 21) for v in values)

    def test_bounds_bracket(self):
        assert lower_bound_density() < upper_bound_density()


class TestAnnuli:
    def test_membership_at_first_block(self):
        # scales run 1, 2304, 2304^3, ...; the first wide block sits at 2304
        expected = {1}
        for lo, hi in DEFAULT_ANNULI.interval_ratios:
            expected.update(
                n for n in range(1, 2305) if n * lo > 2304 and n * hi <= 2304
            )
        got = {n for n in range(1, 2305) if DEFAULT_ANNULI.contains(n, 2304)}
        assert got == expected
        assert {49, 50, 51, 2304}.issubset(got)
        assert 48 not in got and 2 not in got

    def test_scale_factor_steps(self):
        assert list(DEFAULT_ANNULI.scales_upto(48)) == [1]
        assert list(DEFAULT_ANNULI.scales_upto(2304)) == [1, 2304]
        deep = list(DEFAULT_ANNULI.scales_upto(2304**2 * 48 + 1))
        assert deep == [1, 2304, 2304**3]

    def test_kept_norms_stay_in_first_block_below_far_scale(self):
        # Up to 2304**3 / 48 only scales 1 and 2304 are visible, and their
        # annuli end at 2304; the next kept norm is 2304**3 / 48 + 1.
        limit = 2304**3 // 48
        assert list(DEFAULT_ANNULI.scales_upto(limit)) == [1, 2304]
        assert max(m // hi for m in (1, 2304) for _, hi in DEFAULT_ANNULI.interval_ratios) == 2304
        assert DEFAULT_ANNULI.contains(limit + 1, limit + 1)
        mask = density._kept_mask(10**5, DEFAULT_ANNULI)
        assert mask[2304] and not any(mask[2305:])

    def test_progression_free_at_contract_size(self):
        assert verify_annuli_gp_free(48 * 48)

    def test_widened_spec_fails(self):
        assert not verify_annuli_gp_free(48 * 48, WIDENED)

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            verify_annuli_gp_free(47)

    @pytest.mark.parametrize("max_norm", [48, 777, 2304, 3000, 10**5])
    @pytest.mark.parametrize("spec", [DEFAULT_ANNULI, WIDENED], ids=["default", "widened"])
    def test_mask_matches_contains(self, spec, max_norm):
        mask = density._kept_mask(max_norm, spec)
        assert len(mask) == max_norm + 1
        assert [n for n in range(max_norm + 1) if mask[n]] == [
            n for n in range(max_norm + 1) if spec.contains(n, max_norm)
        ]

    def test_mask_is_zero_one_bytes(self):
        # The scan ANDs the mask's bytes, which is exact only for 0/1 flags.
        for spec in [DEFAULT_ANNULI, WIDENED, *RANDOM_SPECS]:
            assert set(density._kept_mask(5000, spec)) <= {0, 1}


class TestAnnuliScan:
    @pytest.mark.parametrize("max_norm", SCAN_SIZES)
    @pytest.mark.parametrize("spec", [DEFAULT_ANNULI, WIDENED, *RANDOM_SPECS],
                             ids=["default", "widened", *(f"random{i}" for i in range(len(RANDOM_SPECS)))])
    def test_matches_oracle(self, spec, max_norm):
        assert verify_annuli_gp_free(max_norm, spec) == annuli_scan_oracle(max_norm, spec)

    def test_random_specs_reach_both_verdicts(self):
        verdicts = {annuli_scan_oracle(max_norm, spec)
                    for spec in RANDOM_SPECS for max_norm in (2304, 5000)}
        assert verdicts == {True, False}

    def test_only_triple_ends_at_max_norm(self):
        # The kept norms are 38..152, whose first triple is (38, 76, 152).
        spec = AnnuliSpec(((37, 9),))
        assert annuli_scan_oracle(151, spec) and verify_annuli_gp_free(151, spec)
        assert not annuli_scan_oracle(152, spec)
        assert not verify_annuli_gp_free(152, spec)

    # No spec keeps a triple (1, k, k**2).  A kept k > 1 lies in (M / w, M]
    # for a scale M >= w**2, w the widest ratio, so k**2 > M**2 / w**2 >= M,
    # while the next scale keeps only norms above w * M**2 > k**2.  So
    # these cases, and the largest ratio k, hand the scan a built mask.
    @pytest.mark.parametrize("max_norm, n, k", [
        (49, 1, 7),
        (2304, 1, 48),
        (5000, 1, 5),
        (4800, 3, 40),
        (10**5, 1, 316),
    ])
    def test_only_triple_in_built_mask(self, monkeypatch, max_norm, n, k):
        mask = bytearray(max_norm + 1)
        for m in (n, n * k, n * k * k):
            mask[m] = 1
        monkeypatch.setattr(density, "_kept_mask", lambda limit, spec: mask)
        assert not annuli_scan_oracle(max_norm, DEFAULT_ANNULI)
        assert not verify_annuli_gp_free(max_norm, DEFAULT_ANNULI)
        mask[n * k * k] = 0
        assert annuli_scan_oracle(max_norm, DEFAULT_ANNULI)
        assert verify_annuli_gp_free(max_norm, DEFAULT_ANNULI)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_masks_match_oracle(self, monkeypatch, seed):
        rng = random.Random(seed)
        max_norm = rng.choice(SCAN_SIZES[:4])
        share = rng.choice([0.05, 0.1, 0.2])
        mask = bytearray(int(rng.random() < share) for _ in range(max_norm + 1))
        monkeypatch.setattr(density, "_kept_mask", lambda limit, spec: mask)
        assert verify_annuli_gp_free(max_norm) == annuli_scan_oracle(max_norm, DEFAULT_ANNULI)


class TestAnnuliSpecValidation:
    @pytest.mark.parametrize("pairs, bad", [
        (((48, 45), (2, 0)), "(2, 0)"),
        (((3, 5),), "(3, 5)"),
        (((4, 4),), "(4, 4)"),
        (((4.0, 1),), "(4.0, 1)"),
        (((4, 2, 1),), "(4, 2, 1)"),
        (([4, 1],), "[4, 1]"),
    ])
    def test_bad_pair_named(self, pairs, bad):
        with pytest.raises(ValueError, match=re.escape(bad)):
            AnnuliSpec(pairs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            AnnuliSpec(())

    def test_published_and_widened_specs_construct(self):
        assert AnnuliSpec() == DEFAULT_ANNULI
        assert AnnuliSpec(WIDENED.interval_ratios) == WIDENED
        assert checks.check_annuli()[0]


class TestRankinMembership:
    def test_apfree_prefix(self):
        assert [n for n in range(31) if rankin_apfree_contains(n)] == [
            0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30,
        ]

    @given(st.integers(min_value=0, max_value=100_000))
    def test_apfree_is_no_ternary_two(self, n):
        assert rankin_apfree_contains(n) == (not has_ternary_two(n))

    def test_gpfree_prefix(self):
        assert [n for n in range(1, 41) if rankin_gpfree_contains(n)] == [
            1, 2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 19, 21, 22,
            23, 24, 26, 27, 29, 30, 31, 33, 34, 35, 37, 38, 39, 40,
        ]

    @given(st.integers(min_value=1, max_value=50_000))
    def test_gpfree_via_exponents(self, n):
        expected = all(
            rankin_apfree_contains(e) for e in prime_exponents(n).values()
        )
        assert rankin_gpfree_contains(n) == expected

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
    def test_gpfree_multiplicative_on_coprimes(self, a, b):
        if math.gcd(a, b) == 1:
            assert rankin_gpfree_contains(a * b) == (
                rankin_gpfree_contains(a) and rankin_gpfree_contains(b)
            )


class TestRankinDensity:
    def test_estimate_fields(self):
        est = rankin_density(100, 12)
        assert est.truncation == (100, 12)
        assert est.monotone_direction == "over"
        assert isinstance(est.value, Decimal)

    def test_small_truncation_frozen(self):
        est = rankin_density(100, 12)
        assert str(est.value)[:14] == "0.772648099907"

    def test_truncation_monotone(self):
        # each added prime multiplies by a factor below 1
        coarse = rankin_density(100, 20).value
        finer = rankin_density(1000, 20).value
        assert finer < coarse

    def test_even_factor(self):
        assert rankin_even_factor(12) == Fraction(63897843, 67108864)
        exponents = [n for n in range(13) if rankin_apfree_contains(n)]
        assert rankin_even_factor(12) == sum(
            Fraction(3, 4 ** (n + 1)) for n in exponents
        )

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            DensityEstimate(Decimal("1.5"), (10, 10))

    @pytest.mark.parametrize(
        "max_prime, max_exponent, expected",
        [
            (10**6, 40, "0.77124479312899819810019904425603063267182202839785"),
            (10**5, 40, "0.77124535958793016172288905047256814409332911843233"),
            (100, 12, "0.77264809990761195352552279557038005611537630112347"),
            (2000, 8, "0.77122525831779093901673308748310141826535509214970"),
            (5, 1, "0.74800000000000000000000000000000000000000000000000"),
            (5, 40, "0.81193513220506490116810779734105806017618681248847"),
            # Recorded before the factor sums visited only nonzero weights:
            # p = 3 walks all 83 weights, the others end at step boundaries.
            (3, 40, "0.84577929085193058347515299071586789454839664731052"),
            (10**6, 1, "0.70671668024813833684505522292022665767704842745595"),
            (10**6, 4, "0.77118033864031691089256490039788732542548395182058"),
            (300_000, 13, "0.77124493073272410868040384031922936197522863032270"),
        ],
    )
    def test_pinned_digits(self, max_prime, max_exponent, expected):
        assert str(rankin_density(max_prime, max_exponent).value) == expected

    @pytest.mark.parametrize("max_prime", [3, 5, 7, 11, 100, 1000])
    def test_matches_exact_factor_product(self, max_prime):
        for max_exponent in range(1, 41):
            expected = str(decimal_product_oracle(max_prime, max_exponent))
            assert str(rankin_density(max_prime, max_exponent).value) == expected

    def test_ignores_ambient_decimal_context(self):
        # A narrower, truncating context must not round any factor or the product
        expected = str(rankin_density(1000, 40).value)
        with decimal.localcontext(decimal.Context(prec=5, rounding=decimal.ROUND_DOWN)):
            assert str(rankin_density(1000, 40).value) == expected

    def test_even_factor_coefficient_matches_decimal_division(self):
        for max_exponent in range(1, 200):
            even = rankin_even_factor(max_exponent)
            with decimal.localcontext(DECIMAL_50):
                expected = int((Decimal(even.numerator) / Decimal(even.denominator)).scaleb(50))
            assert round(even * 10**density._DIGITS) == expected, max_exponent


class TestIntegerProduct:
    @pytest.mark.parametrize(
        "max_prime, max_exponent",
        [(3, 1), (97, 3), (10**4, 8), (2000, 40), (10**5, 12)],
    )
    def test_matches_decimal_product(self, max_prime, max_exponent):
        expected = str(decimal_product_oracle(max_prime, max_exponent))
        assert str(rankin_density(max_prime, max_exponent).value) == expected

    @pytest.mark.parametrize("max_prime, max_exponent", [(5, 1), (1000, 13), (300, 40)])
    def test_exact_fallback_matches_decimal_product(self, monkeypatch, max_prime, max_exponent):
        # No fixed-point total is decided, so every factor comes from _exact_factor
        monkeypatch.setattr(density, "_round_fixed", lambda totals, slack: [None] * len(totals))
        expected = str(decimal_product_oracle(max_prime, max_exponent))
        assert str(rankin_density(max_prime, max_exponent).value) == expected

    def test_product_below_a_tenth_raises(self, monkeypatch):
        # A factor of 0.1 leaves a product below 0.1, where a 50-digit
        # Decimal would keep one more place than the coefficient holds
        tenth = 10 ** (density._DIGITS - 1)
        monkeypatch.setattr(density, "_round_fixed", lambda totals, slack: [tenth] * len(totals))
        with pytest.raises(AssertionError):
            rankin_density(3, 1)


class TestPrimesUpto:
    def test_matches_trial_division(self):
        # Every limit, so each odd square, each prime and each even
        # limit is an endpoint once.
        primes = [n for n in range(5001) if is_prime(n)]
        for limit in range(5001):
            assert density._primes_upto(limit) == primes[:bisect.bisect_right(primes, limit)]


DECIMAL_50 = decimal.Context(prec=50, rounding=decimal.ROUND_HALF_EVEN)


def decimal_factor(p, exponents):
    """Oracle for _exact_factor: the factor as one exact fraction, divided in 50-digit Decimal."""
    top = exponents[-1]
    # Factor = sum over allowed n of p**-n - (p+1) * p**-(2n+2),
    # cleared to the common denominator p**(2*top+2).
    powers = [1] * (2 * top + 3)
    for e in range(1, 2 * top + 3):
        powers[e] = powers[e - 1] * p
    num = 0
    for n in exponents:
        num += powers[2 * top + 2 - n] - (p + 1) * powers[2 * (top - n)]
    with decimal.localcontext(DECIMAL_50):
        return Decimal(num) / Decimal(powers[2 * top + 2])


def decimal_coefficient(p, exponents):
    """The 50-digit coefficient of decimal_factor, which lies in [0.1, 1)."""
    return int(decimal_factor(p, exponents).scaleb(50, DECIMAL_50))


def decimal_product_oracle(max_prime, max_exponent):
    """Oracle for rankin_density: every factor divided and multiplied in 50-digit Decimal."""
    exponents = density._apfree_exponents(max_exponent)
    even = rankin_even_factor(max_exponent)
    with decimal.localcontext(DECIMAL_50):
        product = Decimal(even.numerator) / Decimal(even.denominator)
        for p in density._primes_upto(max_prime)[1:]:
            product *= decimal_factor(p, exponents)
        return +product


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def exponent_lists():
    """The distinct allowed-exponent lists over max_exponent 1..40."""
    return sorted({tuple(density._apfree_exponents(m)) for m in range(1, 41)})


@pytest.fixture
def fixed_only(monkeypatch):
    """Fail on any call to _exact_factor, so every factor is the fixed-point rounding's own."""
    def fallback(p, exponents):
        raise AssertionError(f"exact fallback for p={p}, exponents {exponents}")
    monkeypatch.setattr(density, "_exact_factor", fallback)


class TestFixedFactor:
    def assert_matches_exact(self, primes, exponent_lists):
        for exponents in exponent_lists:
            expected = [decimal_coefficient(p, list(exponents)) for p in primes]
            assert fixed_factors(primes, exponents) == expected, exponents

    def test_odd_primes_below_ten_thousand_every_exponent(self, fixed_only):
        primes = [p for p in density._primes_upto(10**4) if p not in (2, 5)]
        self.assert_matches_exact(primes, exponent_lists())

    def test_odd_primes_below_hundred_thousand(self, fixed_only):
        primes = [p for p in density._primes_upto(10**5) if p not in (2, 5)]
        self.assert_matches_exact(primes, [tuple(density._apfree_exponents(40))])

    def test_prime_five_every_exponent(self, fixed_only):
        # 5's factor can be a terminating decimal, which the Decimal
        # quotient keeps short; its coefficient is the same value padded
        self.assert_matches_exact([5], exponent_lists())

    def test_exact_factor_matches_decimal_division(self):
        primes = [*density._primes_upto(3000)[1:], 999_979, 999_983]
        for exponents in exponent_lists():
            for p in primes:
                expected = decimal_coefficient(p, list(exponents))
                assert density._exact_factor(p, list(exponents)) == expected, (p, exponents)

    def test_weights_sum_the_factor(self):
        exponents = density._apfree_exponents(13)
        weights = density._fixed_weights(exponents)
        assert set(weights) <= {-1, 0, 1}
        p = Fraction(7)
        assert sum(w / p**k for k, w in enumerate(weights)) == sum(
            1 / p**n - (p + 1) / p ** (2 * n + 2) for n in exponents
        )

    def test_prime_five_terminates(self, fixed_only):
        # 1 - 1/5 - 1/25 + 1/5 - 1/125 - 1/625 is 0.9504 exactly, which the
        # Decimal quotient keeps short and the coefficient pads to 50 places
        assert str(decimal_factor(5, [0, 1])) == "0.9504"
        assert fixed_factors([5], [0, 1]) == [9504 * 10**46]

    @pytest.mark.parametrize("weights", [[1], [0]], ids=["one", "zero"])
    def test_coefficient_outside_fifty_digits_raises(self, monkeypatch, weights):
        # factors 1 and 0 round to 10**50 and 0, which have no 50-digit form
        monkeypatch.setattr(density, "_fixed_weights", lambda exponents: weights)
        with pytest.raises(AssertionError, match="outside"):
            fixed_factors([3], [0])

    def test_steps_keep_nonzero_weights(self):
        weights = density._fixed_weights(density._apfree_exponents(40))
        steps = density._fixed_steps(weights)
        powers = list(itertools.accumulate((gap for _, gap in steps), initial=0))
        assert powers[-1] == len(weights) == 83
        nonzero = [(k, w) for k, w in enumerate(weights) if w]
        assert [(k, w) for k, (w, _) in zip(powers, steps)] == nonzero
        assert len(nonzero) == 34

    def test_sparse_total_matches_dense_below_ten_thousand(self):
        primes = [p for p in density._primes_upto(10**4) if p != 2]
        assert_sparse_matches_dense(primes, exponent_lists())

    def test_sparse_total_matches_dense_at_step_thresholds(self):
        # T_k = floor(_SCALE / p**k) first reads 0 where p passes the k-th root of _SCALE
        primes = []
        for k in range(5, 14):
            root = integer_root(density._SCALE, k)
            primes += primes_near(root, 20)
        assert_sparse_matches_dense(sorted(primes), exponent_lists())

    def test_default_truncation_takes_fixed_path_only(self, monkeypatch):
        blocks, exact_calls = [], []
        fixed, exact = density._fixed_factors, density._exact_factor

        def recorded(*args):
            for block in fixed(*args):
                blocks.append(block)
                yield block

        monkeypatch.setattr(density, "_fixed_factors", recorded)
        monkeypatch.setattr(density, "_exact_factor", lambda *a: exact_calls.append(a) or exact(*a))
        rankin_density()
        assert sum(map(len, blocks)) == 78_497
        assert exact_calls == []


class TestFixedFactorBlocks:
    @pytest.mark.parametrize("share", [None, 16, 4], ids=["default", "wide", "wider"])
    def test_blocks_straddling_step_thresholds_match_oracle(self, monkeypatch, share):
        # T_k = floor(_SCALE / p**k) first reads 0 where p passes the k-th
        # root of _SCALE, so each block below mixes primes whose k-th term
        # is 0 with primes whose term is not.  A slack of _UNIT / share
        # flags about 2 / share of the entries, so the wider slacks also
        # mix decided entries with undecidable ones, which _exact_factor
        # then rounds, in one block.
        round_fixed, rounded = density._round_fixed, []

        def recorded(totals, slack):
            rounded.append(round_fixed(totals, slack if share is None else density._UNIT // share))
            return rounded[-1]

        monkeypatch.setattr(density, "_round_fixed", recorded)
        blocks = set()
        for k in range(3, 84):
            root = integer_root(density._SCALE, k)
            blocks.add(tuple(sorted(p for p in primes_near(root, 8) if p != 2)))
        entries = []
        for exponents in exponent_lists():
            weights = density._fixed_weights(list(exponents))
            slack = len(weights) if share is None else density._UNIT // share
            for block in sorted(blocks):
                (got,) = density._fixed_factors(block, list(exponents))
                expected = [round_fixed_oracle(dense_fixed_total(p, weights), slack) for p in block]
                assert rounded[-1] == expected, (block, exponents, slack)
                assert got == [decimal_coefficient(p, list(exponents)) if c is None else c
                               for p, c in zip(block, expected)], (block, exponents, slack)
                entries += expected
        undecided = entries.count(None)
        if share is None:
            assert undecided == 0
        else:
            assert 0.5 / share < undecided / len(entries) < 4 / share


class TestRoundFixed:
    unit = density._UNIT
    half = density._HALF_UNIT

    def test_clear_of_midpoint_rounds_total(self):
        totals = [7 * self.unit + 3, 7 * self.unit + self.unit - 3]
        assert density._round_fixed(totals, 5) == [7, 8]

    def test_straddling_midpoint_falls_back(self):
        midpoint = 7 * self.unit + self.half
        assert density._round_fixed([midpoint - 4, midpoint, midpoint + 4], 5) == [None] * 3

    def test_touching_midpoint_from_below(self):
        # window (midpoint - 10, midpoint): every value rounds down
        midpoint = 7 * self.unit + self.half
        assert density._round_fixed([midpoint - 5, midpoint - 4], 5) == [7, None]

    def test_touching_midpoint_from_above(self):
        # window (midpoint, midpoint + 10): every value rounds up
        midpoint = 7 * self.unit + self.half
        assert density._round_fixed([midpoint + 5, midpoint + 4], 5) == [8, None]

    @pytest.mark.parametrize("slack", [1, 2, 5, 83, 1000])
    def test_matches_three_floor_oracle_near_midpoints(self, slack):
        for k in (0, 7, 10**49, 10**50 - 1):
            midpoint = k * self.unit + self.half
            totals = range(midpoint - slack - 2, midpoint + slack + 3)
            expected = [round_fixed_oracle(total, slack) for total in totals]
            assert density._round_fixed(list(totals), slack) == expected

    def test_matches_three_floor_oracle_on_random_totals(self):
        rng = random.Random(20261018)
        for _ in range(20_000):
            slack = rng.randint(1, 200)
            if rng.random() < 0.5:
                total = rng.randrange(10**64)
            else:
                total = rng.randrange(10**50) * self.unit + self.half + rng.randint(-250, 250)
            assert density._round_fixed([total], slack) == [round_fixed_oracle(total, slack)]


def fixed_factors(primes, exponents):
    """The coefficients _fixed_factors yields, one per prime, across its blocks."""
    return list(itertools.chain.from_iterable(density._fixed_factors(primes, list(exponents))))


def dense_fixed_total(p, weights):
    """Oracle for the factor's fixed-point sum: every weight, zeros included."""
    total = 0
    x = density._SCALE
    for w in weights:
        if not x:
            break
        total += w * x
        x //= p
    return total


def round_fixed_oracle(total, slack):
    """Oracle for _round_fixed: counts the midpoints in the window with two floors."""
    unit, half = density._UNIT, density._HALF_UNIT
    low, high = total - slack, total + slack
    if (high - 1 - half) // unit > (low - half) // unit:
        return None
    return (total + half) // unit


def assert_sparse_matches_dense(primes, exponent_lists):
    # primes ascending, in as many blocks as _fixed_factors would take
    blocks = [primes[i : i + density._BLOCK] for i in range(0, len(primes), density._BLOCK)]
    for exponents in exponent_lists:
        weights = density._fixed_weights(list(exponents))
        steps = density._fixed_steps(weights)
        for block in blocks:
            totals = density._fixed_totals(block, steps)
            assert totals == [dense_fixed_total(p, weights) for p in block], exponents


def integer_root(n, k):
    """The largest r with r**k <= n, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_probable_prime(n):
    """Miller-Rabin on the first twelve prime bases, exact below 3.3 * 10**24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_near(n, count):
    """The count primes at or below n and the count primes above it."""
    below = itertools.islice(filter(is_probable_prime, range(n, 1, -1)), count)
    above = itertools.islice(filter(is_probable_prime, itertools.count(n + 1)), count)
    return [*below, *above]

"""Density bounds, annuli verification, and the Rankin Euler product."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpfree import density
from gpfree.density import (
    DEFAULT_ANNULI,
    AnnuliSpec,
    DensityEstimate,
    lower_bound_density,
    rankin_apfree_contains,
    rankin_density,
    rankin_even_factor,
    rankin_gpfree_contains,
    rankin_quaternion_contains,
    upper_bound_density,
    verify_annuli_gp_free,
)
from gpfree.quaternion import HurwitzInt


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

    def test_density_sum_matches_lower_bound(self):
        assert DEFAULT_ANNULI.density_sum() == lower_bound_density()

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

    def test_quaternion_membership_is_norm_test(self):
        assert rankin_quaternion_contains(HurwitzInt.from_integers(1, 0, 0, 0))
        assert rankin_quaternion_contains(HurwitzInt.from_integers(1, 1, 0, 0))
        # norm 4 = 2^2 and the exponent 2 has a ternary digit 2
        assert not rankin_quaternion_contains(HurwitzInt.from_integers(2, 0, 0, 0))


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
            DensityEstimate(Decimal("1.5"), (10, 10), "over")

    @pytest.mark.parametrize(
        "max_prime, max_exponent, expected",
        [
            (10**6, 40, "0.77124479312899819810019904425603063267182202839785"),
            (10**5, 40, "0.77124535958793016172288905047256814409332911843233"),
            (100, 12, "0.77264809990761195352552279557038005611537630112347"),
            (2000, 8, "0.77122525831779093901673308748310141826535509214970"),
            (5, 1, "0.74800000000000000000000000000000000000000000000000"),
            (5, 40, "0.81193513220506490116810779734105806017618681248847"),
        ],
    )
    def test_pinned_digits(self, max_prime, max_exponent, expected):
        assert str(rankin_density(max_prime, max_exponent).value) == expected

    @pytest.mark.parametrize("max_prime", [3, 5, 7, 11, 100, 1000])
    def test_matches_exact_factor_product(self, max_prime):
        primes = [p for p in range(3, max_prime + 1) if is_prime(p)]
        for max_exponent in range(1, 41):
            exponents = density._apfree_exponents(max_exponent)
            even = rankin_even_factor(max_exponent)
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                product = Decimal(even.numerator) / Decimal(even.denominator)
                for p in primes:
                    product *= density._exact_factor(p, exponents)
                expected = str(+product)
            assert str(rankin_density(max_prime, max_exponent).value) == expected


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def exponent_lists():
    """The distinct allowed-exponent lists over max_exponent 1..40."""
    return sorted({tuple(density._apfree_exponents(m)) for m in range(1, 41)})


class TestFixedFactor:
    def assert_matches_exact(self, primes, exponent_lists):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for exponents in exponent_lists:
                weights = density._fixed_weights(list(exponents))
                for p in primes:
                    fixed = density._fixed_factor(p, weights)
                    assert fixed is not None, (p, exponents)
                    assert str(fixed) == str(density._exact_factor(p, list(exponents)))

    def test_odd_primes_below_ten_thousand_every_exponent(self):
        primes = [p for p in density._primes_upto(10**4) if p not in (2, 5)]
        self.assert_matches_exact(primes, exponent_lists())

    def test_odd_primes_below_hundred_thousand(self):
        primes = [p for p in density._primes_upto(10**5) if p not in (2, 5)]
        self.assert_matches_exact(primes, [tuple(density._apfree_exponents(40))])

    def test_prime_five_every_exponent(self):
        # 5's factor is a terminating decimal, so the fixed-point form may
        # carry trailing zeros the exact quotient drops: compare by value
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for exponents in exponent_lists():
                fixed = density._fixed_factor(5, density._fixed_weights(list(exponents)))
                assert fixed is not None, exponents
                assert fixed == density._exact_factor(5, list(exponents)), exponents

    def test_weights_sum_the_factor(self):
        exponents = density._apfree_exponents(13)
        weights = density._fixed_weights(exponents)
        assert set(weights) <= {-1, 0, 1}
        p = Fraction(7)
        assert sum(w / p**k for k, w in enumerate(weights)) == sum(
            1 / p**n - (p + 1) / p ** (2 * n + 2) for n in exponents
        )

    def test_prime_five_terminates(self):
        # 1 - 1/5 - 1/25 + 1/5 - 1/125 - 1/625 is 0.9504 exactly, which the
        # exact quotient keeps short and the fixed-point form pads to 50 places
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = density._exact_factor(5, [0, 1])
        fixed = density._fixed_factor(5, density._fixed_weights([0, 1]))
        assert str(exact) == "0.9504"
        assert fixed == exact and str(fixed) == "0.95040" + "0" * 45

    @pytest.mark.parametrize("weights", [[1], [0]], ids=["one", "zero"])
    def test_coefficient_outside_fifty_digits_raises(self, weights):
        # factors 1 and 0 round to 10**50 and 0, which have no 50-digit form
        with pytest.raises(AssertionError):
            density._fixed_factor(3, weights)


class TestRoundFixed:
    unit = density._UNIT
    half = density._HALF_UNIT

    def test_clear_of_midpoint_rounds_total(self):
        assert density._round_fixed(7 * self.unit + 3, 5) == 7
        assert density._round_fixed(7 * self.unit + self.unit - 3, 5) == 8

    def test_straddling_midpoint_falls_back(self):
        midpoint = 7 * self.unit + self.half
        for total in (midpoint - 4, midpoint, midpoint + 4):
            assert density._round_fixed(total, 5) is None

    def test_touching_midpoint_from_below(self):
        # window (midpoint - 10, midpoint): every value rounds down
        midpoint = 7 * self.unit + self.half
        assert density._round_fixed(midpoint - 5, 5) == 7
        assert density._round_fixed(midpoint - 4, 5) is None

    def test_touching_midpoint_from_above(self):
        # window (midpoint, midpoint + 10): every value rounds up
        midpoint = 7 * self.unit + self.half
        assert density._round_fixed(midpoint + 5, 5) == 8
        assert density._round_fixed(midpoint + 4, 5) is None

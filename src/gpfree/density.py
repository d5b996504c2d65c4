"""Density bounds and exact densities for progression-free sets of norms.

Three computations live here: the annular lower bound construction for
sets of Hurwitz integers free of geometric progressions, the matching
power-of-two upper bound, and the Euler product giving the density of
Hurwitz integers whose norm is a Rankin integer, meaning every prime
exponent of the norm avoids the digit 2 in base 3.  Bounds are exact
rationals.  The Euler product is a 50-digit integer coefficient,
rounded half-even at each step, of correctly rounded factors computed a
block of primes at a time (see ``_fixed_factors``), over the odd primes
of :mod:`gpfree.counting`'s sieve, ``_primes_upto``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .counting import _primes_upto, factorize

__all__ = [
    "AnnuliSpec",
    "DEFAULT_ANNULI",
    "DensityEstimate",
    "lower_bound_density",
    "rankin_apfree_contains",
    "rankin_density",
    "rankin_even_factor",
    "rankin_gpfree_contains",
    "upper_bound_density",
    "verify_annuli_gp_free",
]


@dataclass(frozen=True)
class AnnuliSpec:
    """Blueprint for a union of norm annuli that avoids geometric triples.

    Around each scale M the construction keeps the norms in the
    intervals (M/lo, M/hi] for the listed (lo, hi) ratio pairs.  Scales
    grow as M' = w * w * M * M starting from 1, where w is the widest
    ratio lo, fast enough that blocks at different scales can never
    interact.

    Raises:
        ValueError: unless interval_ratios holds at least one pair and
            each pair is a tuple of two ints lo > hi >= 1.
    """

    interval_ratios: tuple[tuple[int, int], ...] = (
        (48, 45),
        (40, 36),
        (32, 27),
        (24, 12),
        (9, 8),
        (4, 1),
    )

    def __post_init__(self):
        if not self.interval_ratios:
            raise ValueError("interval_ratios must hold at least one (lo, hi) pair")
        for pair in self.interval_ratios:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(r, int) for r in pair) and pair[0] > pair[1] >= 1):
                raise ValueError(f"interval ratio {pair!r} is not a pair of ints lo > hi >= 1")

    def scales_upto(self, max_norm: int):
        """Yield block scales M whose annuli can meet [1, max_norm]."""
        widest = max(lo for lo, _ in self.interval_ratios)
        m = 1
        while m < widest * max_norm:
            yield m
            m = widest * widest * m * m

    def contains(self, n: int, max_norm: int) -> bool:
        """Whether norm n belongs to some annulus with scale visible below max_norm.

        Membership of n in (M/lo, M/hi] is decided by the integer tests
        n * lo > M and n * hi <= M, so no rounding is involved.
        """
        for m in self.scales_upto(max_norm):
            for lo, hi in self.interval_ratios:
                if n * lo > m and n * hi <= m:
                    return True
        return False


DEFAULT_ANNULI = AnnuliSpec()


def lower_bound_density() -> Fraction:
    """Density of norms kept by the annular construction DEFAULT_ANNULI, exact.

    Each pair (lo, hi) contributes 1/hi^2 - 1/lo^2 because the count of
    Hurwitz integers with norm at most M grows like a constant times
    M^2, so the annulus (M/lo, M/hi] carries that share of the total in
    the large-M limit.
    """
    return sum((Fraction(1, hi * hi) - Fraction(1, lo * lo)
                for lo, hi in DEFAULT_ANNULI.interval_ratios), Fraction(0))


def upper_bound_density(terms: int | None = None) -> Fraction:
    """Upper bound for the density of a geometric-progression-free set.

    Each excluded region contributes 3/4 * 2**-(4 + 6i); with terms=None
    the full series is summed in closed form to 20/21.

    Args:
        terms: number of exclusion terms to apply, at least 1, or None
            for the limit of the full series.

    Raises:
        ValueError: if terms is given and is less than 1.
    """
    if terms is None:
        return Fraction(20, 21)
    if terms < 1:
        raise ValueError(f"terms must be positive, got {terms}")
    total = Fraction(1)
    for i in range(terms):
        total -= Fraction(3, 4) * Fraction(1, 2 ** (4 + 6 * i))
    return total


def _kept_mask(max_norm: int, spec: AnnuliSpec) -> bytearray:
    """Flags for 0..max_norm, set exactly where spec.contains(n, max_norm) holds.

    The integers of the annulus (m/lo, m/hi] are m//lo + 1 .. m//hi, so
    each annulus is marked as one run instead of testing every n.
    """
    kept = bytearray(max_norm + 1)
    for m in spec.scales_upto(max_norm):
        for lo, hi in spec.interval_ratios:
            first, last = m // lo + 1, min(m // hi, max_norm)
            if first <= last:
                kept[first : last + 1] = b"\x01" * (last + 1 - first)
    return kept


def verify_annuli_gp_free(max_norm: int, spec: AnnuliSpec = DEFAULT_ANNULI) -> bool:
    """Brute-force check that the kept norms contain no geometric triple.

    Tests every (n, n*k, n*k**2) with integer ratio k >= 2 and all three
    terms at most max_norm; returns False if some triple has all its
    members kept.  A set of norms with no such integer-ratio triple
    supports a progression-free set of quaternions, since any quaternion
    progression forces exactly this pattern on norms.

    The scan runs one ratio at a time.  For ratio k the admissible n are
    1..m with m = max_norm // k**2, and the strided views kept[1:m+1],
    kept[k:k*m+1:k] and kept[k*k:k*k*m+1:k*k] hold the flags of n, n*k
    and n*k**2 at the same byte offset n - 1.  Each view is read as one
    little-endian integer and the three are ANDed, so a nonzero result
    is a kept triple; the two far views are skipped when the first is
    all zero.  This is exact only because the mask holds 0/1 bytes: with
    other nonzero values two flags could share no bit.  Each view spans
    about 0.65 * max_norm bytes over all k (the sum of max_norm / k**2
    over k >= 2), handled in C in place of a Python step per pair.

    Every kept norm of DEFAULT_ANNULI is at most 2304 while max_norm is
    at most 2304**3 / 48 (about 2.55e8): the scale after 2304 is
    2304**3, whose widest annulus starts just above 2304**3 / 48.  A
    longer range below that re-tests the first block against more
    ratios, on a mask that is zero past 2304.

    Args:
        max_norm: top of the scanned range, at least 48 so the first
            nontrivial annuli are exercised.
        spec: annuli blueprint to test; pass a modified one to confirm
            the check really rejects bad blueprints.

    Raises:
        ValueError: if max_norm < 48.
    """
    if max_norm < 48:
        raise ValueError(f"max_norm must be at least 48, got {max_norm}")
    kept = _kept_mask(max_norm, spec)
    for k in range(2, math.isqrt(max_norm) + 1):
        m = max_norm // (k * k)
        first = int.from_bytes(kept[1 : m + 1], "little")
        if first and (first & int.from_bytes(kept[k : k * m + 1 : k], "little")
                      & int.from_bytes(kept[k * k : k * k * m + 1 : k * k], "little")):
            return False
    return True


def rankin_apfree_contains(n: int) -> bool:
    """Membership in the greedy progression-free set of nonnegative integers.

    The greedy set built over 0, 1, 2, ... avoiding three-term
    arithmetic progressions is exactly the integers with no digit 2 in
    base 3.

    Raises:
        ValueError: if n is negative.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    while n:
        if n % 3 == 2:
            return False
        n //= 3
    return True


def rankin_gpfree_contains(n: int) -> bool:
    """Whether every prime exponent of n lies in the greedy progression-free set.

    These are the Rankin integers: the greedy geometric-progression-free
    subset of the positive integers.

    Raises:
        ValueError: if n < 1.
    """
    return all(rankin_apfree_contains(e) for _, e in factorize(n))


@dataclass(frozen=True)
class DensityEstimate:
    """A truncated Euler-product density and how it was truncated.

    truncation is the pair (max_prime, max_exponent) that was used.
    monotone_direction, a class constant, is the side from which the
    truncated value approaches the true one: "over", as the estimate
    only decreases when the truncation grows.
    """

    value: Decimal
    truncation: tuple[int, int]
    monotone_direction = "over"

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError(f"density {self.value} outside [0, 1]")


def _apfree_exponents(max_exponent: int) -> list[int]:
    return [n for n in range(max_exponent + 1) if rankin_apfree_contains(n)]


def rankin_even_factor(max_exponent: int) -> Fraction:
    """The p = 2 factor of the Rankin density product, exact.

    Sum of 3/4**(n+1) over allowed exponents n up to max_exponent.
    """
    return sum(
        (Fraction(3, 4 ** (n + 1)) for n in _apfree_exponents(max_exponent)),
        Fraction(0),
    )


# Odd-prime factors lie in [5/9, 1), so 50 significant digits are 50
# decimal places.  They are summed at scale 10**50 * 2**_GUARD_BITS, a
# binary guard (2**47 >= 10**14) so that rounding is a shift and a mask.
# _BLOCK is the number of primes _fixed_factors sums together.
_DIGITS = 50
_GUARD_BITS = 47
_SCALE = 10**_DIGITS << _GUARD_BITS
_UNIT = 1 << _GUARD_BITS
_HALF_UNIT = _UNIT >> 1
_COEFFICIENTS = range(10 ** (_DIGITS - 1), 10**_DIGITS)
_BLOCK = 4096


def _exact_factor(p: int, exponents: list[int]) -> int:
    """The 50-digit coefficient of the factor for prime p, from one exact fraction.

    Fraction rounds half-even, as a 50-digit Decimal division of a
    factor in [0.1, 1) does.
    """
    # Factor = sum over allowed n of p**-n - (p+1) * p**-(2n+2),
    # cleared to the common denominator p**top.
    top = 2 * exponents[-1] + 2
    num = sum(p ** (top - n) - (p + 1) * p ** (top - 2 * n - 2) for n in exponents)
    return round(Fraction(num * 10**_DIGITS, p**top))


def _fixed_weights(exponents: list[int]) -> list[int]:
    """Weights w_k, each -1, 0 or 1, with factor = sum of w_k * p**-k for every p.

    Uses (p+1) * p**-(2n+2) = p**-(2n+1) + p**-(2n+2) for each allowed n.
    """
    weights = [0] * (2 * exponents[-1] + 3)
    for n in exponents:
        weights[n] += 1
        weights[2 * n + 1] -= 1
        weights[2 * n + 2] -= 1
    return weights


def _fixed_steps(weights: list[int]) -> list[tuple[int, int]]:
    """The nonzero weights as (w, gap) steps, in order of the power k.

    gap is the distance from w's power to the next nonzero weight's, or
    to len(weights) after the last one, so one step of _fixed_totals
    adds w * T_k and then moves to T_(k + gap) with one floor division.
    """
    powers = [k for k, w in enumerate(weights) if w] + [len(weights)]
    return [(weights[k], nxt - k) for k, nxt in zip(powers, powers[1:])]


def _fixed_totals(block: list[int], steps: list[tuple[int, int]]) -> list[int]:
    """Fixed-point sums of the factors for a nonempty block of ascending odd primes.

    Entry i is the sum of w_k * floor(_SCALE / p**k) over the steps, for
    p = block[i]; each w_k is 1 or -1, as _fixed_weights makes them.
    How the block is walked is explained in _fixed_factors.
    """
    totals = [0] * len(block)
    x = [_SCALE] * len(block)
    divisors = {}
    for w, gap in steps:
        totals[: len(x)] = map(operator.add if w > 0 else operator.sub, totals, x)
        if x[0] < block[0] ** gap:
            break
        if gap not in divisors:
            # Dividing twice by p, one 30-bit digit, beats dividing once
            # by p**2, which from p = 2**15 on takes CPython's slower
            # multi-digit division.
            divisors[gap] = ([block] * gap if gap <= 2
                             else [list(map(pow, block, itertools.repeat(gap)))])
        for divisor in divisors[gap]:
            x = list(map(operator.floordiv, x, divisor))
        if not x[-1]:
            del x[x.index(0) :]
    return totals


def _round_fixed(totals: list[int], slack: int) -> list[int | None]:
    """Round fixed-point factors to _DIGITS places, with None where undecidable.

    Each exact factor times _SCALE lies in the open window (total -
    slack, total + slack).  With coefficient, rem = divmod(total +
    _UNIT/2, _UNIT), the nearest half-even midpoint k*_UNIT + _UNIT/2 at
    or below total lies rem units below it and the next one _UNIT - rem
    units above it.  So the window holds a midpoint exactly when rem <
    slack or rem > _UNIT - slack, and None then asks for the exact
    division; otherwise every value in the window rounds to coefficient,
    as total does.  How the block is tested at once, and what replaces
    a None, is explained in _fixed_factors.
    """
    shifted = list(map(operator.add, totals, itertools.repeat(_HALF_UNIT)))
    coefficients = list(map(operator.rshift, shifted, itertools.repeat(_GUARD_BITS)))
    rems = list(map(operator.and_, shifted, itertools.repeat(_UNIT - 1)))
    if min(rems) < slack or max(rems) > _UNIT - slack:
        for i, rem in enumerate(rems):
            if rem < slack or rem > _UNIT - slack:
                coefficients[i] = None
    return coefficients


def _fixed_factors(primes, exponents: list[int]):
    """Yield the factors for ascending odd primes, correctly rounded, one list per block.

    The factor for p is the sum of w_k * p**-k over the nonzero weights
    (see _fixed_weights).  It is summed at the fixed-point scale _SCALE
    as the sum of w_k * T_k, with T_k = floor(_SCALE / p**k), for
    _BLOCK primes at a time: the loop over primes is turned inside out,
    so each (w, gap) step of _fixed_steps is one C-level pass over the
    block that adds w * T_k to every total and one that moves every
    entry to T_(k + gap) by a floor division by p**gap, the block's
    powers being built once per distinct gap (a gap of 2 divides by p
    twice).  As floor(floor(S / p**a) / p**b) = floor(S / p**(a + b)),
    each T_k is exact.  T_k falls as p grows, so the entries whose T_k
    has reached 0 are a suffix of the block; they drop out of the later
    passes, their totals being final.  The same order makes the block
    stop once block[0]'s T_k is below block[0]**gap, as every entry's
    next term is then 0.

    Each T_k is short of _SCALE / p**k by less than 1, so a total is
    within slack = len(weights) of the exact scaled factor, and
    _round_fixed rounds it.  _SCALE carries a binary guard of
    _GUARD_BITS bits below the 50 decimal places, so rounding a block is
    a shift and a mask, and one min and one max of the remainders clear
    the whole block when no entry's window holds a rounding midpoint;
    otherwise the entries are tested one at a time.  An entry whose
    window holds a midpoint comes back from _round_fixed as None, and
    _exact_factor rounds that factor from its exact fraction instead.

    Args:
        primes: ascending odd primes, any iterable.
        exponents: the allowed exponents, ascending, as
            _apfree_exponents gives them.

    Yields:
        For each block of primes, the list of their factors' 50-digit
        coefficients c, each factor being c * 10**-_DIGITS.

    Raises:
        AssertionError: if a factor rounds outside [0.1, 1).
    """
    weights = _fixed_weights(exponents)
    steps, slack = _fixed_steps(weights), len(weights)
    primes = iter(primes)
    while block := list(itertools.islice(primes, _BLOCK)):
        coefficients = _round_fixed(_fixed_totals(block, steps), slack)
        if None in coefficients:
            coefficients = [_exact_factor(p, exponents) if c is None else c
                            for p, c in zip(block, coefficients)]
        if min(coefficients) not in _COEFFICIENTS or max(coefficients) not in _COEFFICIENTS:
            p, c = next((p, c) for p, c in zip(block, coefficients) if c not in _COEFFICIENTS)
            raise AssertionError(f"factor for p={p} rounds to {c}, outside [0.1, 1)")
        yield coefficients


def rankin_density(max_prime: int = 10**6, max_exponent: int = 40) -> DensityEstimate:
    """Density of Hurwitz integers with Rankin norm, as a truncated Euler product.

    The factor for a prime p is the sum, over allowed exponents n, of
    the share of Hurwitz integers whose norm has p-adic valuation
    exactly n, so it matches summing proportion_exact_ppower(p, n) over
    allowed n.  Each odd-prime factor is the correctly rounded 50-digit
    value, computed a block of primes at a time (see ``_fixed_factors``)
    and fed into a running product in ascending prime order.  Dropping
    primes above max_prime removes factors below 1, hence the truncated
    value approaches the true density from above as max_prime grows.

    The running product is kept as its 50-digit integer coefficient,
    starting from the rounded p = 2 factor.  Each step rounds
    coefficient * factor / 10**50 half-even, which is what a 50-digit
    ``Decimal`` product does while the product stays in [0.1, 1); a
    step that leaves it below 0.1 raises.  The ``Decimal`` value is
    built once, at the end, from its digits, so the caller's decimal
    context plays no part.

    Args:
        max_prime: largest odd prime kept, at least 3.
        max_exponent: largest exponent kept in each factor, at least 1.

    Raises:
        ValueError: on out-of-range truncation parameters.
    """
    if max_prime < 3:
        raise ValueError(f"max_prime must be at least 3, got {max_prime}")
    if max_exponent < 1:
        raise ValueError(f"max_exponent must be at least 1, got {max_exponent}")
    one, half, low = 10**_DIGITS, 10**_DIGITS // 2, 10 ** (_DIGITS - 1)
    product = round(rankin_even_factor(max_exponent) * one)
    odd_primes = _primes_upto(max_prime)[1:]
    factors = itertools.chain.from_iterable(
        _fixed_factors(odd_primes, _apfree_exponents(max_exponent)))
    for p, factor in zip(odd_primes, factors):
        product, rem = divmod(product * factor, one)
        if product < low:
            # Below 0.1 a 50-digit Decimal would keep a 51st place.
            raise AssertionError(f"Rankin product fell below 0.1 at p={p}")
        # Half-even: round up past the midpoint, and at it when odd.
        if rem > half or (rem == half and product & 1):
            product += 1
    value = Decimal(f"{product}E-{_DIGITS}")
    return DensityEstimate(value=value, truncation=(max_prime, max_exponent))

"""Counting Hurwitz integers by reduced norm.

The number of elements of norm N is 24 times the sum of the odd
divisors of N.  Everything in this module is exact integer or rational
arithmetic built on that formula; the lattice enumeration that confirms
it lives in :mod:`gpfree.quaternion`.  The integer factorization, the
prime test and the prime sieve here are the only ones in the package;
``factorize`` and :mod:`gpfree.density`'s Euler product both take their
primes from ``_primes_upto``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping, ValuesView
from fractions import Fraction

from .records import Record

__all__ = [
    "NormCount",
    "count_norm_exact",
    "count_upto",
    "factorize",
    "greatest_odd_divisor",
    "is_rational_prime",
    "odd_divisor_sum",
    "proportion_exact_ppower",
    "square_norm_gap",
]


def _primes_upto(limit: int) -> list[int]:
    """Primes up to limit, ascending, by a sieve over the odd numbers only.

    Index i of the sieve stands for 2i + 1, so the odd multiples of an
    odd prime p from p*p on sit at the indices p*p // 2 + k*p.
    """
    if limit < 2:
        return []
    sieve = bytearray([1]) * ((limit + 1) // 2)
    sieve[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, len(sieve), p)))
    return [2, *itertools.compress(range(1, limit + 1, 2), sieve)]


# factorize's trial divisors, published as one (limit, primes) tuple:
# the odd primes up to limit, which grows to the largest square root
# asked for, up to _ODD_PRIMES_CAP.  A call reads or replaces the whole
# tuple, so the list it holds covers its limit whatever another thread
# publishes meanwhile.
_ODD_PRIMES_CAP = 1 << 16
_odd_prime_table = (3, [3])


def _odd_primes_covering(root: int) -> list[int]:
    """Every odd prime up to min(root, _ODD_PRIMES_CAP), ascending, and perhaps more."""
    global _odd_prime_table
    limit = min(root, _ODD_PRIMES_CAP)
    table = _odd_prime_table
    if limit > table[0]:
        table = _odd_prime_table = (limit, _primes_upto(limit)[1:])
    return table[1]


# The first 13 primes as Miller-Rabin bases decide primality for every n
# below this bound (Sorenson and Webster, 2017); the first 12 do not, as
# 318665857834031151167461 passes all of them.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _probable_prime(n: int) -> bool:
    """Whether the odd n > 41 passes Miller-Rabin to every base of _MILLER_RABIN_BASES.

    False proves n composite.  True proves n prime below
    _MILLER_RABIN_BOUND, and past it proves nothing.
    """
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split_large(n: int) -> list[tuple[int, int]]:
    """The factorization of an odd n > 1 with no prime factor below 2**16, as factorize gives it.

    Such an n below 2**32 is prime, and is returned whole.  From 2**32
    on, a perfect square is split at its square root.  Any other n past
    _SPLIT_BITS = 2400 bits is refused untried: there the rho budget
    reaches no prime that trial division has not removed (see
    ``_rho_divisor``), and Miller-Rabin alone would take over a second
    on a prime past about 2800 bits (1.5 s at 3217 bits).  Below that,
    an n that passes Miller-Rabin is returned whole if it lies below
    _MILLER_RABIN_BOUND, where that proves it prime, and refused past
    it; an n that fails is split at the divisor ``_rho_divisor`` finds.
    Each part of a split is factored the same way, by recursion.

    Raises:
        ValueError: for a non-square n past _SPLIT_BITS, for an n past
            _MILLER_RABIN_BOUND that passes Miller-Rabin, which proves
            it neither prime nor composite, and for a composite n that
            ``_rho_divisor`` does not split within its step budget; the
            message names that n, which may be a part of the n given.
    """
    if n < _ODD_PRIMES_CAP**2:
        return [(n, 1)]
    d = math.isqrt(n)
    if d * d != n:
        if n.bit_length() > _SPLIT_BITS:
            raise ValueError(
                f"cannot factor {n}: it has {n.bit_length()} bits, past the {_SPLIT_BITS}"
                " up to which Pollard's rho reaches further than trial division")
        if _probable_prime(n):
            if n < _MILLER_RABIN_BOUND:
                return [(n, 1)]
            raise ValueError(
                f"cannot factor {n}: it is past {_MILLER_RABIN_BOUND} and passes"
                f" Miller-Rabin to all {len(_MILLER_RABIN_BASES)} bases, which proves"
                " it neither prime nor composite")
        d = _rho_divisor(n)
        if d is None:
            raise ValueError(
                f"cannot factor {n}: Pollard's rho found no divisor within its budget of"
                f" {_rho_budget(n)} steps for a {n.bit_length()}-bit number")
    exponents: dict[int, int] = {}
    for part in (d, n // d):
        for p, e in _split_large(part):
            exponents[p] = exponents.get(p, 0) + e
    return sorted(exponents.items())


# Pollard's rho gives up after _RHO_STEPS steps of its walk on an n of up
# to _RHO_BITS bits, and after fewer on a larger n; see _rho_budget.  Past
# _SPLIT_BITS its budget reaches no prime past trial division's 2**16.
_RHO_STEPS, _RHO_BITS = 1 << 20, 150
_SPLIT_BITS = 16 * _RHO_BITS


def _rho_budget(n: int) -> int:
    """The steps ``_rho_divisor`` may take on n: 2**20 * (150 / b)**2 for b > 150 bits.

    A step squares and multiplies modulo n, so its cost grows with the
    bit length b of n, a little faster than b: about 0.6 us at 150 bits,
    3.7 us at 648 and 17 us at 1886 on a 2-core x86-64 machine under
    CPython 3.11.  A budget falling as b**-2 past 150 bits keeps every
    search within the time the 2**20 steps take at 150 bits, about 0.6 s
    there.
    """
    return _RHO_STEPS * _RHO_BITS**2 // max(n.bit_length(), _RHO_BITS) ** 2


def _rho_divisor(n: int) -> int | None:
    """A divisor d of the odd composite n with 1 < d < n, by Pollard's rho in Brent's form.

    Iterates x -> x*x + c mod n from x = 2 for c = 1, 2, ...; Brent's
    cycle search compares each x with the value at the last power of
    two and takes one gcd per batch of 128 differences, stepping back
    through the batch one difference at a time when the gcd is n.  A c
    whose walk meets no proper divisor is dropped for the next.  The
    expected cost is about n**(1/4) steps, as the walk modulo the
    least prime factor p of n repeats after about sqrt(p) steps.

    Returns None rather than start a round that would take the steps of
    all walks past ``_rho_budget(n)``, which is 2**20 for n up to 150
    bits.  The round with power P takes 2P steps, so with that budget
    the first walk runs every round up to P = 2**18, and finds p once
    its walk modulo p enters a cycle of at most 2**18 steps within
    2**19 - 2 steps.  For p below 2**32 a random walk misses that with
    odds of at most about 2 in 10**5, and a dropped c gets the rest of
    the budget; in 2,000 seeded products p * q with p from 2**31 to 2**32
    and q from 2**40 to 2**41, no walk needed a round past P = 2**17
    (477,054 steps at most).  So up to 150 bits the budget splits every
    n whose least prime factor is below 2**32, save with those odds.

    Past 150 bits the budget falls as the square of n's bit length b,
    and the walk modulo p needs about sqrt(p) steps, so the reach falls
    as b**-4.  The first walk's last round is P = 2**14 at 600 bits,
    2**12 at 1200 and 2**10 at 2400, which split with the same odds an
    n whose least prime factor is below 2**24, 2**20 and 2**16 in turn
    (no miss in 400, 400 and 200 seeded p from the top half of each
    range).  At 2400 bits trial division already reaches that far, so
    ``_split_large`` calls rho on no larger n.
    """
    budget = _rho_budget(n)
    steps = 0
    for c in itertools.count(1):
        y, power, product, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * power
            if steps > budget:
                return None
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            k = 0
            while k < power and g == 1:
                saved = y
                for _ in range(min(128, power - k)):
                    y = (y * y + c) % n
                    product = product * (x - y) % n
                g = math.gcd(product, n)
                k += 128
            power *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def factorize(n: int):
    """Yield the prime factorization of n as (p, e) pairs by ascending p.

    A generator, so a caller that stops early (a prime test at the first
    factor, a membership test at the first bad exponent) pays only for
    the trial division up to that factor.  Trial division runs once,
    over a shared table of odd primes, sieved by ``_primes_upto`` and
    grown on demand to the largest square root asked for so far, up to
    2**16.  What it leaves is 1, or a prime below 2**32, yielded as it
    is, or a cofactor from 2**32 on with no prime factor below 2**16,
    which ``_split_large`` factors by Miller-Rabin and Pollard's rho.

    Raises:
        ValueError: if n < 1, or if ``_split_large`` refuses a cofactor:
            one past _MILLER_RABIN_BOUND that passes Miller-Rabin to
            every base, a composite that Pollard's rho does not split
            within its budget, or a non-square past 2400 bits.  The
            message names the cofactor.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    twos = (n & -n).bit_length() - 1
    if twos:
        yield 2, twos
        n >>= twos
    root = math.isqrt(n)
    for p in _odd_primes_covering(root):
        if p > root:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e
            root = math.isqrt(n)
    if root >= _ODD_PRIMES_CAP:  # n >= 2**32, so the whole table was tried
        yield from _split_large(n)
    elif n > 1:
        yield n, 1


def is_rational_prime(n: int) -> bool:
    """Whether the integer n is prime; False for n < 2."""
    return n > 1 and next(factorize(n)) == (n, 1)


def odd_divisor_sum(n: int) -> int:
    """Sum of the odd divisors of n (n >= 1)."""
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factorize(n) if p != 2)


def count_norm_exact(norm: int) -> int:
    """Number of Hurwitz integers of the given reduced norm.

    Raises:
        ValueError: if norm < 1.
    """
    if norm < 1:
        raise ValueError(f"norm must be positive, got {norm}")
    return 24 * odd_divisor_sum(norm)


def greatest_odd_divisor(n: int) -> int:
    """Largest odd divisor of n (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n >> ((n & -n).bit_length() - 1)


def square_norm_gap(n: int) -> tuple[int, int, bool]:
    """Compare 24 times the norm-n count against the norm-n*n count.

    Returns (24 * count_norm_exact(n), count_norm_exact(n * n), holds)
    where holds means the strict inequality lhs < rhs.  The inequality
    holds exactly when the greatest odd divisor of n exceeds 23, which
    is what makes unit-times-square representations fail often enough
    for the greedy set to stay large.

    Raises:
        ValueError: if n < 1.
    """
    lhs = 24 * count_norm_exact(n)
    rhs = count_norm_exact(n * n)
    return (lhs, rhs, lhs < rhs)


def count_upto(max_norm: int) -> int:
    """Number of nonzero Hurwitz integers with norm at most max_norm.

    Summing the odd-divisor counts directly would cost a divisor sum per
    norm; swapping the order of summation instead groups by cofactor m
    and sums the odd numbers up to max_norm // m, which is a square.
    That quotient takes O(sqrt(max_norm)) distinct values, each on a
    run of consecutive m, so the sum runs in O(sqrt(max_norm)) steps.
    """
    if max_norm < 0:
        raise ValueError(f"max_norm must be nonnegative, got {max_norm}")
    total = 0
    m = 1
    while m <= max_norm:
        quotient = max_norm // m
        last = max_norm // quotient
        k = (quotient + 1) // 2
        total += (last - m + 1) * k * k
        m = last + 1
    return 24 * total


def _norm_counts_upto(max_norm: int) -> list[int]:
    """Sieve of count_norm_exact(n) = 24 * (sum of odd divisors) for 1..max_norm.

    Index 0 is unused.  Every odd n splits as d * m with odd d <= m in
    one way per divisor pair, so for each odd d <= sqrt(max_norm) one
    slice assignment adds 24 * (d + m) to counts[d * m] for all odd
    m >= d, and the square d * d then takes 24 * d back, as its pair
    holds one divisor.  Even n are filled by block copies, since 2**k * m
    has the odd divisors of m: for each k, counts[2**k * m] = counts[m]
    for every odd m <= max_norm >> k.
    """
    counts = [0] * (max_norm + 1)
    for d in range(1, math.isqrt(max_norm) + 1, 2):
        row = counts[d * d :: 2 * d]
        counts[d * d :: 2 * d] = map(operator.add, row, range(48 * d, 48 * (d + len(row)), 48))
        counts[d * d] -= 24 * d
    k = 1
    while max_norm >> k:
        counts[1 << k :: 2 << k] = counts[1 : (max_norm >> k) + 1 : 2]
        k += 1
    return counts


class _NormValues(ValuesView):
    """The values of a _ByNorm in norm order, iterated straight off its list."""

    __slots__ = ()

    def __iter__(self):
        return itertools.islice(self._mapping._values, 1, None)


class _ByNorm(Mapping):
    """Read-only mapping from each norm 1..len(values) - 1 to values[norm].

    values[0] is a placeholder, so a norm indexes the list directly; any
    other key raises KeyError.
    """

    __slots__ = ("_values",)

    def __init__(self, values: list[int]):
        self._values = values

    def __getitem__(self, norm):
        if isinstance(norm, int) and 0 < norm < len(self._values):
            return self._values[norm]
        raise KeyError(norm)

    def __iter__(self):
        return iter(range(1, len(self._values)))

    def __len__(self) -> int:
        return len(self._values) - 1

    def values(self) -> _NormValues:
        return _NormValues(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_norm={len(self)})"


class NormCount(Record):
    """Per-norm and cumulative counts for all norms up to a bound.

    per_norm and cumulative are read-only mappings over the norms
    1..max_norm, each backed by one list indexed by norm; a key outside
    that range raises KeyError, and .values() runs in norm order.
    """

    __slots__ = ("max_norm", "per_norm", "cumulative")
    max_norm: int
    per_norm: Mapping[int, int]
    cumulative: Mapping[int, int]

    @classmethod
    def build(cls, max_norm: int) -> "NormCount":
        """Tabulate counts for 1..max_norm with a divisor sieve."""
        if max_norm < 1:
            raise ValueError(f"max_norm must be positive, got {max_norm}")
        per_norm = _norm_counts_upto(max_norm)
        cumulative = list(itertools.accumulate(per_norm))
        return cls(max_norm, _ByNorm(per_norm), _ByNorm(cumulative))


def proportion_exact_ppower(p: int, n: int) -> Fraction:
    """Asymptotic share of Hurwitz integers whose norm has p-adic valuation n.

    Exact rational value of the density of elements with p**n dividing
    the norm but p**(n+1) not.  The shares over all n sum to 1 for any
    fixed prime p.

    Args:
        p: a rational prime.
        n: valuation, n >= 0.

    Raises:
        ValueError: if p is not prime or n is negative.
    """
    if not is_rational_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 0:
        raise ValueError(f"valuation must be nonnegative, got {n}")
    if p == 2:
        return Fraction(3, 4 ** (n + 1))
    num = p ** (n + 3) - p ** (n + 2) - p * p + 1
    den = (p - 1) * p * p * p ** (2 * n)
    return Fraction(num, den)

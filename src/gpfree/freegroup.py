"""Progression-free subsets of the free product of two order-2 generators.

Reduced words over generators x, y with x*x == y*y == identity are
alternating strings, so a word is determined by its leading letter and
its length.  Enumerating words by length with x before y at each length
gives the order identity, x, y, xy, yx, xyx, yxy, ...; the greedy
geometric-progression-free subset in that order turns out to consist of
even-length words only, and pulling it back through the isomorphism
(xy)**k -> k onto the integers in the order 0, 1, -1, 2, -2, ... it has
a clean base-3 digit description with an explicit arithmetic
progression witnessing every exclusion.

The two greedies count progressions differently.
``greedy_set_bruteforce`` counts only arithmetic progressions of three
distinct integers, which in the integers means every nonzero
difference.  ``greedy_words_bruteforce`` also counts (w, I, w):
an odd word w is a reflection, so the ratio r = w has r * r = I and
w, w * r = I, I * r = w is a progression with a repeated term.  The
identity is kept first, so every odd word is excluded this way, which
is why the word greedy keeps even-length words only; counting distinct
terms only would keep some odd words as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "IDENTITY",
    "Word",
    "alt_order_value",
    "even_word_to_int",
    "greedy_set_bruteforce",
    "greedy_set_contains",
    "greedy_set_density",
    "greedy_words_bruteforce",
    "greedy_words_density",
    "index_of",
    "ternary",
    "witness_progression",
    "word_at",
    "word_mul",
]


_OTHER = {"x": "y", "y": "x"}


@dataclass(frozen=True, slots=True)
class Word:
    """A reduced word: alternating letters, named by leading letter and length.

    The identity is Word(None, 0).
    """

    leading: str | None
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"length must be nonnegative, got {self.length}")
        if (self.length == 0) != (self.leading is None):
            raise ValueError(f"leading {self.leading!r} inconsistent with length {self.length}")
        if self.leading is not None and self.leading not in _OTHER:
            raise ValueError(f"leading letter must be 'x' or 'y', got {self.leading!r}")

    @property
    def last(self) -> str | None:
        """Final letter: the leading one for odd length, the other for even."""
        if self.length == 0:
            return None
        return self.leading if self.length % 2 else _OTHER[self.leading]

    def inverse(self) -> "Word":
        # An odd word is a palindrome, hence its own inverse; an even
        # word reverses to the same length led by the other letter.
        if self.length % 2 or self.length == 0:
            return self
        return Word(_OTHER[self.leading], self.length)

    def __str__(self) -> str:
        if self.length == 0:
            return "I"
        a, b = self.leading, _OTHER[self.leading]
        return (a + b) * (self.length // 2) + a * (self.length % 2)


IDENTITY = Word(None, 0)


def word_mul(u: Word, v: Word) -> Word:
    """Product in the group, with full cancellation at the seam.

    When the last letter of u equals the first of v, a block of length
    2 * min(len(u), len(v)) cancels; the survivor keeps its leading
    letter if u was longer, and flips it once per cancelled letter of u
    otherwise.
    """
    if u.length == 0:
        return v
    if v.length == 0:
        return u
    if u.last != v.leading:
        return Word(u.leading, u.length + v.length)
    if u.length > v.length:
        return Word(u.leading, u.length - v.length)
    if u.length < v.length:
        lead = v.leading if u.length % 2 == 0 else _OTHER[v.leading]
        return Word(lead, v.length - u.length)
    return IDENTITY


def word_at(n: int) -> Word:
    """The n-th word (1-based) in the length-then-leading-letter order.

    Order: I, x, y, xy, yx, xyx, yxy, ...

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"index must be at least 1, got {n}")
    if n == 1:
        return IDENTITY
    return Word("x" if n % 2 == 0 else "y", n // 2)


def index_of(w: Word) -> int:
    """Position of w in the enumeration order; inverse of word_at."""
    if w.length == 0:
        return 1
    return 2 * w.length + (0 if w.leading == "x" else 1)


def even_word_to_int(w: Word) -> int:
    """Image of an even-length word under (xy)**k -> k.

    Raises:
        ValueError: if the word has odd length.
    """
    if w.length % 2:
        raise ValueError(f"word {w} has odd length")
    if w.length == 0:
        return 0
    k = w.length // 2
    return k if w.leading == "x" else -k


def alt_order_value(n: int) -> int:
    """The n-th integer (1-based) in the order 0, 1, -1, 2, -2, ...

    Raises:
        ValueError: if n < 1.
    """
    if n < 1:
        raise ValueError(f"index must be at least 1, got {n}")
    if n == 1:
        return 0
    return n // 2 if n % 2 == 0 else -(n // 2)


def _digits(m: int) -> list[int]:
    """Base-3 digits of m >= 0, least significant first; empty for 0."""
    out = []
    while m:
        out.append(m % 3)
        m //= 3
    return out


def ternary(n: int) -> str:
    """Base-3 rendering, most significant digit first, '-' for negatives."""
    if n == 0:
        return "0"
    ds = _digits(abs(n))
    body = "".join(str(d) for d in reversed(ds))
    return "-" + body if n < 0 else body


def greedy_set_contains(n: int) -> bool:
    """Membership in the greedy progression-free set over 0, 1, -1, 2, -2, ...

    A positive member has exactly one base-3 digit 1 with only zeros
    below it; a negative member has no digit 1 at all in |n|.  Zero is a
    member.
    """
    if n == 0:
        return True
    if n > 0:
        while n % 3 == 0:
            n //= 3
        if n % 3 != 1:
            return False
        n //= 3
        while n:
            if n % 3 == 1:
                return False
            n //= 3
        return True
    m = -n
    while m:
        if m % 3 == 1:
            return False
        m //= 3
    return True


class _Blocked:
    """A greedy three-term-progression-free set of integers, with what it blocks.

    Candidates must come in order of nondecreasing absolute value.
    ``blocked`` holds every c that ends a progression of three distinct
    terms with two kept integers a != z: c = 2z - a and c = 2a - z.  So
    a candidate costs one membership test, and keeping z adds both
    families for every integer kept before it in one set update each.
    A candidate c is never the middle term of two kept a != e, because
    |c| = |a + e| / 2 < max(|a|, |e|) would put one of them after c in
    the order, so no midpoints are blocked.
    """

    __slots__ = ("kept", "blocked", "_doubled")

    def __init__(self):
        self.kept: list[int] = []
        self.blocked: set[int] = set()
        self._doubled: list[int] = []  # 2a for each kept a

    def keep(self, z: int) -> None:
        self.blocked.update(map((2 * z).__sub__, self.kept))
        self.blocked.update(map((-z).__add__, self._doubled))
        self.kept.append(z)
        self._doubled.append(2 * z)


def greedy_set_bruteforce(max_abs: int) -> set[int]:
    """Greedy three-term-progression-free subset of [-max_abs, max_abs].

    Processes integers in the order 0, 1, -1, 2, -2, ... and keeps each
    one unless it would complete an arithmetic progression of three
    distinct terms with two kept integers, in any of the three
    positions (the module docstring compares this with the word greedy).
    """
    if max_abs < 0:
        raise ValueError(f"max_abs must be nonnegative, got {max_abs}")
    state = _Blocked()
    for z in map(alt_order_value, range(1, 2 * max_abs + 2)):
        if z not in state.blocked:
            state.keep(z)
    return set(state.kept)


def greedy_words_bruteforce(max_len: int) -> set[Word]:
    """Greedy geometric-progression-free set of words up to a length bound.

    Words are processed in enumeration order; w is kept unless some
    progression a, a*r, a*r*r with r != I has w as one of its terms and
    all terms in the kept set plus w itself.  Ratios are recovered by
    division, so terms of any length can appear, but both partner terms
    must already be kept (or coincide with w).  Progressions with a
    repeated term count too (see the module docstring).

    The greedy runs on integer coordinates.  With t = xy, every word is
    t**m * x**s for one type s in {0, 1}; since x * t * x = t**-1, an
    odd word is its own inverse.  Give each word the signed length
    n = +length when it leads with x and -length when it leads with y:
    then n = 2m + s, the even words are t**(n/2), x-led odd words are
    t**k * x with n = 2k + 1 and y-led ones are t**-(k+1) * x with
    n = -(2k + 1).  The enumeration order is the order 0, 1, -1, 2, -2,
    ... of n, in which |m| never decreases within a type.

    The progression tests reduce as follows.  A progression with terms
    w and a kept b != w has its third term b * w**-1 * b (w first or
    last) or w * b**-1 * w (w in the middle), and w is excluded when
    that term lies in the kept set plus w.
    - Same type, b = t**a * x**s and w = t**z * x**s: the two products
      are t**(2a - z) * x**s and t**(2z - a) * x**s.  Neither equals w,
      so these are exactly the arithmetic-progression tests on m among
      the kept words of type s, which ``_Blocked`` answers.
    - Opposite types: b * w**-1 * b = w and w * b**-1 * w = b, so
      (w, b, w) is a progression with a repeated term.  One kept word
      of the other type excludes w.
    The identity is kept first, so no odd word is ever kept.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    states = (_Blocked(), _Blocked())
    for n in map(alt_order_value, range(1, 2 * max_len + 2)):
        s, m = n & 1, n >> 1
        if not states[1 - s].kept and m not in states[s].blocked:
            states[s].keep(m)
    signed = [2 * m + s for s, state in enumerate(states) for m in state.kept]
    return {Word("x", n) if n > 0 else Word("y", -n) if n < 0 else IDENTITY for n in signed}


def greedy_words_density(n: int) -> Fraction:
    """Share of words of length at most 2 * 3**n kept by the greedy rule.

    Exactly 2**(n+1) of the 1 + 4 * 3**n words survive.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return Fraction(2 ** (n + 1), 1 + 4 * 3**n)


def greedy_set_density(n: int) -> Fraction:
    """Share of integers in [-3**n, 3**n] kept by the greedy rule.

    Exactly 2**(n+1) of the 1 + 2 * 3**n integers survive.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return Fraction(2 ** (n + 1), 1 + 2 * 3**n)


def _ones_places(digits: list[int]) -> list[int]:
    """1-based places of the digit 1, ascending."""
    return [i + 1 for i, d in enumerate(digits) if d == 1]


def _spans(ones: list[int], start: int) -> set[int]:
    """The places in [i_q, i_{q+1}) for q = start, start + 2, ..., from the 1-places ones."""
    return {p for q in range(start, len(ones) - 1, 2) for p in range(ones[q], ones[q + 1])}


def _twos(digits: list[int], places) -> set[int]:
    """The places among places where digits has a 2."""
    return {p for p in places if digits[p - 1] == 2}


def _from_places(twos: set[int]) -> int:
    """The number with digit 2 at the given 1-based places and 0 elsewhere."""
    return sum(2 * 3 ** (p - 1) for p in twos)


def witness_progression(n: int) -> tuple[int, int, int] | None:
    """An arithmetic progression certifying that n was rejected by the greedy.

    For n outside the greedy set, returns (a, b, r) with a and b in the
    set, both preceding n in the processing order, and b - a == n - b
    == r != 0, so (a, b, n) is the progression that blocked n.  Returns
    None for members.

    The construction works on base-3 digits.  Writing i_1 < i_2 < ...
    for the places of the digit 1, the blocked midpoint b keeps a digit
    1 only at i_1 (positive n) and otherwise uses digits 0 and 2 chosen
    pairwise along the 1-places; adjustments for an all-{0,2} prefix
    above the leading 1 and for trailing zeros are linear.
    """
    if greedy_set_contains(n):
        return None
    if n > 0:
        a, b = _positive_witness(n)
    else:
        a, b = _negative_witness(n)
    r = n - b
    if not (b - a == r != 0 and abs(a) <= abs(n) and abs(b) < abs(n)
            and greedy_set_contains(a) and greedy_set_contains(b)):
        raise AssertionError(f"({a}, {b}, {n}) is not a blocking progression")
    return (a, b, r)


def _positive_witness(n: int) -> tuple[int, int]:
    scale = 1
    core = n
    while core % 3 == 0:
        core //= 3
        scale *= 3
    digits = _digits(core)
    ones = _ones_places(digits)
    if not ones:
        # Last digit is 2: lowering it to 1 gives the blocking ratio.
        ratio = core - 1
        return (scale * (core - 2 * ratio), scale * (core - ratio))
    # Split off the {0,2} prefix above the topmost 1; it shifts the
    # endpoint and the ratio but never the digit pattern below.
    k = ones[-1]
    m = core % 3**k
    shift = core - m
    # The midpoint keeps the lowest 1.
    b = 3 ** (ones[0] - 1)
    if len(ones) % 2:
        # Odd number of 1-places: above the lowest 1, place a 2
        # wherever the core has a 2 and across each interval
        # [i_{2q}, i_{2q+1}).
        b += _from_places(_twos(digits, range(ones[0] + 1, k)) | _spans(ones, 1))
        a, b = 2 * b - m + shift, b + shift
    else:
        # Even number of 1-places: place a 2 on every second upper
        # 1-place i_3, i_5, ... and wherever the core has a 2 strictly
        # inside a pair interval (i_{2q-1}, i_{2q}).
        b += _from_places(set(ones[2::2]) | _twos(digits, _spans(ones, 0)))
        a = 2 * b - m - shift
    return (scale * a, scale * b)


def _negative_witness(n: int) -> tuple[int, int]:
    digits = _digits(-n)
    ones = _ones_places(digits)
    if len(ones) % 2 == 0:
        # All core 2s survive; each pair interval [i_{2q-1}, i_{2q})
        # fills with 2s.
        twos = _twos(digits, range(1, len(digits) + 1)) | _spans(ones, 0)
    else:
        # The 1-places above i_1 pair as (i_2, i_3), (i_4, i_5), ...;
        # inside each pair interval every nonzero digit place is taken,
        # and borrow chains sweep the zero gaps.  Any 2 below i_1 is
        # taken as well, the lowest becoming the surviving 1 of the far
        # endpoint; with no such 2 the place i_1 itself survives.
        twos = {p for p in _spans(ones, 1) if digits[p - 1]} | _twos(digits, range(1, ones[0]))
    b = -_from_places(twos)
    return (2 * b - n, b)

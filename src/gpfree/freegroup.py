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

Membership, ``ternary`` and the witnesses read one digit string.  |n|
is rendered once as a str of base-3 digits, least significant first
(digit place p, counted from 1, is index p - 1), six digits per divmod
through a table of the 729 six-digit strings.  A membership test is
then an ``lstrip("0")`` and a search for "1"; a witness endpoint is
written by ``str.split`` at the 1-places and ``str.translate`` over the
runs between them, and read back with ``int(piece, 3)`` one piece of
640 digits at a time, since ``int`` refuses longer strings under the
least limit ``sys.set_int_max_str_digits`` accepts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .records import Record

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


class Word(Record):
    """A reduced word: alternating letters, named by leading letter and length.

    The identity is Word(None, 0).
    """

    __slots__ = ("leading", "length")
    leading: str | None
    length: int

    def __init__(self, leading: str | None, length: int):
        # Not Record's generic __init__, which is twice as slow: words are built in bulk.
        if length < 0:
            raise ValueError(f"length must be nonnegative, got {length}")
        if (length == 0) != (leading is None):
            raise ValueError(f"leading {leading!r} inconsistent with length {length}")
        if leading is not None and leading not in _OTHER:
            raise ValueError(f"leading letter must be 'x' or 'y', got {leading!r}")
        object.__setattr__(self, "leading", leading)
        object.__setattr__(self, "length", length)

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


# The digit strings of 0 .. 3**6 - 1, least significant digit first.
_CHUNK_DIGITS = tuple(digits[::-1] for digits in map("".join, product("012", repeat=6)))
_PIECE = 640
_PIECE_SCALE = 3**_PIECE


def _lsd(m: int) -> str:
    """Base-3 digits of m >= 0, least significant first; empty for 0."""
    chunks = []
    while m >= 3**6:
        m, r = divmod(m, 3**6)
        chunks.append(_CHUNK_DIGITS[r])
    chunks.append(_CHUNK_DIGITS[m])
    return "".join(chunks).rstrip("0")


def _value(digits: str) -> int:
    """The number whose base-3 digits, least significant first, are digits."""
    value = 0
    for start in range((len(digits) - 1) // _PIECE * _PIECE, -1, -_PIECE):
        value = value * _PIECE_SCALE + int(digits[start:start + _PIECE][::-1], 3)
    return value


def _member(digits: str, negative: bool) -> bool:
    """Whether the greedy set holds the number of the given sign whose
    base-3 digits, least significant first, are digits."""
    if negative:
        return "1" not in digits
    # The lowest nonzero digit is a 1 (or there is none: zero), and no
    # other digit is.
    rest = digits.lstrip("0")
    return rest[:1] != "2" and "1" not in rest[1:]


def ternary(n: int) -> str:
    """Base-3 rendering, most significant digit first, '-' for negatives."""
    if n == 0:
        return "0"
    body = _lsd(abs(n))[::-1]
    return "-" + body if n < 0 else body


def greedy_set_contains(n: int) -> bool:
    """Membership in the greedy progression-free set over 0, 1, -1, 2, -2, ...

    A positive member has exactly one base-3 digit 1 with only zeros
    below it; a negative member has no digit 1 at all in |n|.  Zero is a
    member.
    """
    return _member(_lsd(abs(n)), n < 0)


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


# A digit of an interval of class U is written 3, 4 or 5 in place of 0,
# 1 or 2.  The 1-place that ends a piece (below) starts the next
# interval, of the other class, so a 1 marks a 1-place of class U and a
# 4 one of class T.  Each table maps the marked digits of |n| to those
# of one endpoint.
_CLASS_U = str.maketrans("012", "345")
_A_DIGITS = str.maketrans("012345", "002200")
_B_FILL_U = str.maketrans("012345", "022202")
_B_FILL_T = str.maketrans("012345", "020002")


def witness_progression(n: int) -> tuple[int, int, int] | None:
    """An arithmetic progression certifying that n was rejected by the greedy.

    For n outside the greedy set, returns (a, b, r) with a and b in the
    set, both preceding n in the processing order, and b - a == n - b
    == r != 0, so (a, b, n) is the progression that blocked n.  Returns
    None for members.

    The construction works on the base-3 digits of |n|.  The places
    i_1 < ... < i_L of the digit 1 cut them into the digits below i_1
    and L intervals [i_j, i_{j+1}), the last one running to the top
    digit; an interval is of class T when L - j is even (the topmost one
    is) and of class U otherwise.  Digit by digit:
    - a (|a| when negative) keeps the digits of |n| on class T, swaps
      0 and 2 on class U, and writes 0 at every 1-place.  With L odd, a
      is positive: below i_1 it is 3**(i_1 - 1) minus the number that
      the digits of |n| below i_1 make, so its one digit 1 sits at the
      lowest nonzero digit of |n|.  With L even, a is negative and keeps
      the digits below i_1; the digit at i_1 is a 2 for positive n.
    - b (|b| when negative) fills one class, 1-places included: class U
      with 2s when n > 0 and L is odd or n < 0 and L is even, else class
      T with 0s.  The other class keeps the digits of |n|, and its
      1-places become 0 on class T and 2 on class U.  For positive n, b
      keeps the digit 1 at i_1 and is 0 below it; for negative n it
      keeps the digits below i_1.
    Positive n with no digit 1 has lowest nonzero digit 2 at some place
    i, and lowering it to 1 gives the ratio: b = 3**(i - 1).
    """
    negative = n < 0
    digits = _lsd(abs(n))
    if _member(digits, negative):
        return None
    a_negative, a_digits, b_digits = _witness_digits(digits, negative)
    a, b = _value(a_digits), _value(b_digits)
    if a_negative:
        a = -a
    if negative:
        b = -b
    r = n - b
    if not (b - a == r != 0 and abs(a) <= abs(n) and abs(b) < abs(n)
            and _member(a_digits, a_negative) and _member(b_digits, negative)):
        raise AssertionError(f"({a}, {b}, {n}) is not a blocking progression")
    return (a, b, r)


def _witness_digits(digits: str, negative: bool) -> tuple[bool, str, str]:
    """Whether a is negative, and the digits of |a| and |b|, for
    witness_progression, from the digits of |n| (least significant first)."""
    lowest = len(digits) - len(digits.lstrip("0"))
    first_one = digits.find("1")
    if first_one < 0:
        return True, digits[:lowest] + "0" + digits[lowest + 1:], "0" * lowest + "1"
    # Each piece ends at a 1-place: piece k holds the interior of
    # interval k and the place i_{k+1}, piece 0 the digits below i_1.
    # The pieces with L - k odd are marked as class U, piece 0 among them
    # when L is odd, which keeps the digits below i_1 as they are in b
    # for negative n.
    cut = digits.replace("1", "1,")
    pieces = cut.split(",")
    ones = len(pieces) - 1
    pieces[1 - ones % 2::2] = cut.translate(_CLASS_U).split(",")[1 - ones % 2::2]
    marked = "".join(pieces)
    fill_u = negative != (ones % 2 == 1)
    b = marked.translate(_B_FILL_U if fill_u else _B_FILL_T)
    if not negative:
        b = "0" * first_one + "1" + b[first_one + 1:]
    a = marked.translate(_A_DIGITS)
    if ones % 2:
        return False, digits[:lowest] + "1" + a[lowest + 1:], b
    if not negative:
        a = a[:first_one] + "2" + a[first_one + 1:]
    return True, a, b

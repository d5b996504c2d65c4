"""Words over two involutions, the greedy sets, and witness progressions.

Multiplication is cross-checked against a literal string rewriter and
the greedy integer set against a from-scratch re-run of the greedy
process, so the closed forms never test themselves.  The blocked-set
greedies are compared with element-by-element greedies that rescan the
kept set for every candidate, the words through word_mul, and the
digit-string kernel behind membership, ternary and the witnesses with
the digit-at-a-time construction it replaced.
"""

import functools
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpfree.freegroup as freegroup
from gpfree.freegroup import (
    IDENTITY,
    Word,
    alt_order_value,
    even_word_to_int,
    greedy_set_bruteforce,
    greedy_set_contains,
    greedy_set_density,
    greedy_words_bruteforce,
    greedy_words_density,
    index_of,
    ternary,
    witness_progression,
    word_at,
    word_mul,
)


def power_of_xy(k):
    """(xy)**k as a reduced word, written from its string form."""
    s = ("xy" if k > 0 else "yx") * abs(k)
    return Word(s[0], len(s)) if s else IDENTITY


def rewrite_product(s, t):
    """Concatenate and cancel xx / yy pairs until stable."""
    out = list(s)
    for ch in t:
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def word_to_string(w):
    return "" if w is IDENTITY or w.length == 0 else str(w)


def string_to_word(s):
    return Word(s[0], len(s)) if s else IDENTITY


def words(max_len=40):
    leading = st.sampled_from(["x", "y"])
    length = st.integers(min_value=1, max_value=max_len)
    nonempty = st.builds(Word, leading, length)
    return st.one_of(st.just(IDENTITY), nonempty)


def greedy_integers_reference(max_abs):
    """Re-run the greedy process in |value| order, breaking ties 0,n,-n."""
    chosen = []
    for n in range(max_abs + 1):
        for z in ([0] if n == 0 else [n, -n]):
            ok = True
            for b in chosen:
                for a in chosen:
                    if b - a != 0 and 2 * b - a == z:
                        ok = False
                if 2 * z - b in chosen and z != b:
                    ok = False
            if ok:
                chosen.append(z)
    return set(chosen)


def _completes_ap(z, chosen):
    for b in chosen:
        # z as an endpoint with middle term b: the far end is 2b - z.
        if b != z and 2 * b - z in chosen:
            return True
    for a in chosen:
        # z as the middle term.
        if a != z and 2 * z - a in chosen:
            return True
    return False


@functools.cache
def oracle_integers(max_abs):
    """The integer greedy, testing each candidate against every kept pair."""
    chosen = set()
    for idx in range(1, 2 * max_abs + 2):
        z = alt_order_value(idx)
        if not _completes_ap(z, chosen):
            chosen.add(z)
    return frozenset(chosen)


def _completes_gp(w, chosen):
    winv = w.inverse()
    pool = chosen | {w}
    for b in pool:
        binv = b.inverse()
        # w last: progression (b * r**-1, b, w) with r = b**-1 * w.
        r = word_mul(binv, w)
        if r.length and word_mul(b, r.inverse()) in pool:
            return True
        # w middle: progression (b, w, w * r) with r = b**-1 * w.
        if r.length and word_mul(w, r) in pool:
            return True
        # w first: progression (w, b, b * r) with r = w**-1 * b.
        r = word_mul(winv, b)
        if r.length and word_mul(b, r) in pool:
            return True
    return False


@functools.cache
def oracle_words(max_len):
    """The word greedy, multiplying each candidate with every kept word."""
    chosen = set()
    idx = 1
    while (w := word_at(idx)).length <= max_len:
        idx += 1
        if not _completes_gp(w, chosen):
            chosen.add(w)
    return frozenset(chosen)


# The digit-at-a-time construction that the digit-string kernel
# replaced, kept as its oracle: one base-3 digit per % 3 and // 3, the
# 1-places as a list and the digit 2s of the witnesses as sets of places.


def _digits(m):
    """Base-3 digits of m >= 0, least significant first; empty for 0."""
    out = []
    while m:
        out.append(m % 3)
        m //= 3
    return out


def oracle_ternary(n):
    if n == 0:
        return "0"
    body = "".join(str(d) for d in reversed(_digits(abs(n))))
    return "-" + body if n < 0 else body


def oracle_contains(n):
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


def _ones_places(digits):
    """1-based places of the digit 1, ascending."""
    return [i + 1 for i, d in enumerate(digits) if d == 1]


def _spans(ones, start):
    """The places in [i_q, i_{q+1}) for q = start, start + 2, ..., from the 1-places ones."""
    return {p for q in range(start, len(ones) - 1, 2) for p in range(ones[q], ones[q + 1])}


def _twos(digits, places):
    """The places among places where digits has a 2."""
    return {p for p in places if digits[p - 1] == 2}


def _from_places(twos):
    """The number with digit 2 at the given 1-based places and 0 elsewhere."""
    return sum(2 * 3 ** (p - 1) for p in twos)


def _positive_witness(n):
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


def _negative_witness(n):
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


def oracle_witness(n):
    if oracle_contains(n):
        return None
    a, b = _positive_witness(n) if n > 0 else _negative_witness(n)
    return (a, b, n - b)


def assert_matches_oracle(ns):
    for n in ns:
        assert greedy_set_contains(n) == oracle_contains(n), n
        assert ternary(n) == oracle_ternary(n), n
        assert witness_progression(n) == oracle_witness(n), n


class TestWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word("x", 0)
        with pytest.raises(ValueError):
            Word(None, 3)
        with pytest.raises(ValueError):
            Word("z", 2)

    def test_str(self):
        assert str(IDENTITY) == "I"
        assert str(Word("x", 3)) == "xyx"
        assert str(Word("y", 4)) == "yxyx"

    def test_last_letter(self):
        assert Word("x", 3).last == "x"
        assert Word("x", 4).last == "y"
        assert IDENTITY.last is None

    def test_inverse(self):
        assert IDENTITY.inverse() == IDENTITY
        assert Word("x", 3).inverse() == Word("x", 3)
        assert Word("x", 4).inverse() == Word("y", 4)


class TestWordMul:
    def test_hand_cases(self):
        x, y = Word("x", 1), Word("y", 1)
        assert word_mul(x, x) == IDENTITY
        assert word_mul(x, y) == Word("x", 2)
        assert word_mul(Word("x", 2), Word("y", 2)) == IDENTITY
        assert word_mul(Word("x", 2), Word("x", 2)) == Word("x", 4)

    def test_matches_string_rewriter_on_short_words(self):
        # word_mul works on coordinates; the rewriter cancels letters.
        short = [IDENTITY] + [Word(lead, n) for n in range(1, 13) for lead in "xy"]
        assert len(short) ** 2 == 625
        for u in short:
            for v in short:
                expected = rewrite_product(word_to_string(u), word_to_string(v))
                assert word_to_string(word_mul(u, v)) == expected, (u, v)

    @given(words(), words())
    def test_matches_string_rewriter(self, u, v):
        got = word_mul(u, v)
        expected = rewrite_product(word_to_string(u), word_to_string(v))
        assert word_to_string(got) == expected

    @given(words(), words(), words())
    @settings(max_examples=200)
    def test_associative(self, u, v, w):
        assert word_mul(word_mul(u, v), w) == word_mul(u, word_mul(v, w))

    @given(words())
    def test_inverse_law(self, w):
        assert word_mul(w, w.inverse()) == IDENTITY
        assert word_mul(w.inverse(), w) == IDENTITY

    @given(words())
    def test_odd_words_are_involutions(self, w):
        if w.length % 2 == 1:
            assert word_mul(w, w) == IDENTITY


class TestOrderings:
    def test_word_at_prefix(self):
        assert [str(word_at(n)) for n in range(1, 10)] == [
            "I", "x", "y", "xy", "yx", "xyx", "yxy", "xyxy", "yxyx",
        ]

    def test_coordinates_match_string_forms(self):
        # The first 200 words written out as strings, length by length
        # with x before y, against the maps that go through signed lengths.
        strings = [""] + [(pair * n)[:n] for n in range(1, 101) for pair in ("xy", "yx")]
        for idx, s in enumerate(strings[:200], 1):
            w = word_at(idx)
            assert word_to_string(w) == s
            assert index_of(w) == idx
            assert word_to_string(w.inverse()) == s[::-1]
            if len(s) % 2:
                with pytest.raises(ValueError):
                    even_word_to_int(w)
            else:
                k = even_word_to_int(w)
                assert s == ("xy" * k if k >= 0 else "yx" * -k)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_word_index_roundtrip(self, n):
        assert index_of(word_at(n)) == n

    def test_word_at_rejects_zero(self):
        with pytest.raises(ValueError):
            word_at(0)

    def test_alt_order_prefix(self):
        assert [alt_order_value(n) for n in range(1, 10)] == [
            0, 1, -1, 2, -2, 3, -3, 4, -4,
        ]


class TestEvenWordEncoding:
    def test_powers_of_xy(self):
        assert even_word_to_int(IDENTITY) == 0
        assert even_word_to_int(Word("x", 2)) == 1
        assert even_word_to_int(Word("y", 2)) == -1
        assert even_word_to_int(Word("x", 4)) == 2

    @given(st.integers(min_value=-2000, max_value=2000))
    def test_roundtrip(self, k):
        assert even_word_to_int(power_of_xy(k)) == k

    @given(st.integers(min_value=-300, max_value=300), st.integers(min_value=-300, max_value=300))
    def test_homomorphism(self, a, b):
        product = word_mul(power_of_xy(a), power_of_xy(b))
        assert even_word_to_int(product) == a + b

    def test_rejects_odd_words(self):
        with pytest.raises(ValueError):
            even_word_to_int(Word("x", 3))


class TestTernary:
    def test_renderings(self):
        assert ternary(0) == "0"
        assert ternary(8) == "22"
        assert ternary(-5) == "-12"
        assert ternary(95) == "10112"

    # The examples put a zero chunk below the top digit and end a chunk
    # at the top digit.
    @given(st.integers(min_value=-(3**80), max_value=3**80))
    @example(3**6)
    @example(3**6 - 1)
    @example(3**12)
    @example(-(3**12) + 1)
    def test_roundtrip(self, n):
        s = ternary(n)
        sign = -1 if s.startswith("-") else 1
        assert sign * int(s.lstrip("-"), 3) == n


class TestGreedySet:
    def test_frozen_window(self):
        assert sorted(greedy_set_bruteforce(20)) == [
            -20, -18, -8, -6, -2, 0, 1, 3, 7, 9, 19,
        ]

    def test_bruteforce_matches_reference(self):
        assert greedy_set_bruteforce(81) == greedy_integers_reference(81)

    def test_contains_matches_bruteforce(self):
        brute = greedy_set_bruteforce(3**5)
        for n in range(-(3**5), 3**5 + 1):
            assert greedy_set_contains(n) == (n in brute)

    def test_digit_characterization_spots(self):
        # positive members carry a single 1 over trailing zeros
        assert greedy_set_contains(1) and greedy_set_contains(9)
        assert not greedy_set_contains(4) and not greedy_set_contains(12)
        # negative members have no digit 1 at all
        assert greedy_set_contains(-6) and greedy_set_contains(-8)
        assert not greedy_set_contains(-1) and not greedy_set_contains(-9)

    def test_window_counts(self):
        for k in range(7):
            count = sum(
                greedy_set_contains(n) for n in range(-(3**k), 3**k + 1)
            )
            assert count == 2 ** (k + 1)


class TestWitnesses:
    def test_members_have_no_witness(self):
        for n in range(-81, 82):
            if greedy_set_contains(n):
                assert witness_progression(n) is None

    def test_all_excluded_get_valid_witnesses(self):
        # witness_progression asserts the progression internally
        for n in range(-(3**5), 3**5 + 1):
            if not greedy_set_contains(n):
                a, b, r = witness_progression(n)
                assert b - a == r and n - b == r and r != 0
                assert greedy_set_contains(a) and greedy_set_contains(b)
                assert abs(a) <= abs(n) and abs(b) < abs(n)

    def test_pinned_examples(self):
        assert witness_progression(95) == (55, 75, 20)
        assert witness_progression(-47) == (7, -20, -27)
        assert witness_progression(2) == (0, 1, 1)
        assert witness_progression(6) == (0, 3, 3)
        assert witness_progression(78) == (-72, 3, 75)
        assert witness_progression(130) == (-20, 55, 75)
        assert witness_progression(877) == (541, 709, 168)
        assert witness_progression(-1) == (1, 0, -1)
        assert witness_progression(-2149) == (2113, -18, -2131)
        assert witness_progression(-5935) == (5887, -24, -5911)

    def test_deep_sweep_executes_assertions(self):
        for n in range(3**5, 3**7 + 1):
            witness_progression(n)
            witness_progression(-n)

    def test_matches_oracle_to_3_pow_8(self):
        assert_matches_oracle(range(-(3**8), 3**8 + 1))

    def test_matches_oracle_at_chunk_boundaries(self):
        # The kernel renders six digits per divmod, so 3**(6k) * j +- 1
        # carries into or borrows across whole chunks.
        assert_matches_oracle(
            sign * (3 ** (6 * k) * j + e)
            for k in range(13) for j in (1, 2) for e in (-1, 1) for sign in (1, -1)
        )

    def test_matches_oracle_on_seeded_draws(self):
        rng = random.Random(25)
        assert_matches_oracle(rng.randint(-(3**60), 3**60) for _ in range(20_000))

    def test_contains_matches_oracle_past_the_low_chunk(self):
        # A plain draw is mostly refused by its low six digits, the first
        # chunk _lsd renders, so most of these are built to pass them, for
        # the digits above to decide: up to 30 digits 0 and 2, with a
        # positive member's lowest 1 on top of zeros, then one digit
        # redrawn; and the integers next to each power of 3 up to 3**30.
        rng = random.Random(26)
        ns = [rng.randint(-(3**30), 3**30) for _ in range(20_000)]
        for _ in range(20_000):
            digits = [rng.choice((0, 2)) for _ in range(rng.randint(1, 30))]
            if rng.random() < 0.5:
                one = rng.randrange(len(digits))
                digits[:one + 1] = [0] * one + [1]
            if rng.random() < 0.5:
                digits[rng.randrange(len(digits))] = rng.randrange(3)
            ns.append(rng.choice((1, -1)) * sum(d * 3**k for k, d in enumerate(digits)))
        ns += [sign * (3**k * j + e) for k in range(31) for j in (1, 2) for e in (-1, 0, 1)
               for sign in (1, -1)]
        assert sum(map(oracle_contains, ns)) > 5_000
        for n in ns:
            assert greedy_set_contains(n) == oracle_contains(n), n

    @pytest.mark.parametrize("n", [3**4400 + 5, -(3**4400) - 5, 2 * 3**4500, -2 * 3**4500],
                             ids=["3^4400+5", "-3^4400-5", "2*3^4500", "-2*3^4500"])
    def test_matches_oracle_past_int_digit_limit(self, n):
        # More base-3 digits than int(s, 3) reads in one call under the
        # default sys.int_max_str_digits of 4300.
        assert_matches_oracle([n])

    @pytest.mark.parametrize("wrong", [
        (False, "0122", "1002"),  # members 75 and 55, swapped: no progression
        (False, "2201", "2012"),  # 35, 65, 95 with nonmembers 35 and 65
    ])
    def test_self_check_rejects_a_wrong_witness(self, monkeypatch, wrong):
        # The digits of 95's witness (55, 75, 20) replaced by wrong ones,
        # least significant first.
        monkeypatch.setattr(freegroup, "_witness_digits", lambda digits, negative: wrong)
        with pytest.raises(AssertionError, match="is not a blocking progression"):
            witness_progression(95)

    def test_pinned_witness_digest(self):
        # Recorded before the digit cases shared _spans and _twos: every
        # |n| <= 3**7 and a seeded sample up to 3**30, one "n (a, b, r)"
        # or "n None" line each.
        rng = random.Random(20261019)
        ns = [*range(-(3**7), 3**7 + 1), *(rng.randint(-(3**30), 3**30) for _ in range(2000))]
        text = "\n".join(f"{n} {witness_progression(n)}" for n in ns)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "bf2f566ce984694881a076dce2fa881d77049f4b6eaa078ce0b1a898007b0ba1"


class TestGreedyWords:
    def test_small_frozen(self):
        kept = sorted(greedy_words_bruteforce(6), key=index_of)
        assert [str(w) for w in kept] == ["I", "xy", "yxyx", "xyxyxy"]

    def test_counts_at_scales(self):
        for n in range(4):
            kept = greedy_words_bruteforce(2 * 3**n)
            assert len(kept) == 2 ** (n + 1)

    def test_even_image_matches_integer_greedy(self):
        for n in range(4):
            kept = greedy_words_bruteforce(2 * 3**n)
            evens = {w for w in kept if w.length % 2 == 0}
            assert evens == kept  # greedy never keeps an odd word
            image = {even_word_to_int(w) for w in evens}
            assert image == greedy_set_bruteforce(3**n)


class TestBlockedGreediesMatchOracles:
    # The greedies decide in order of |z| and of word length, so a run to
    # a smaller bound keeps exactly the oracle's prefix.
    def test_integer_prefixes(self):
        oracle = oracle_integers(3**7)
        for m in range(3**5 + 1):
            assert greedy_set_bruteforce(m) == {z for z in oracle if abs(z) <= m}, m

    @pytest.mark.parametrize("max_abs", [3**6, 3**7])
    def test_integers_in_full(self, max_abs):
        assert greedy_set_bruteforce(max_abs) == oracle_integers(max_abs)

    def test_word_prefixes(self):
        oracle = oracle_words(2 * 3**6)
        for max_len in range(2 * 3**5 + 1):
            expected = {w for w in oracle if w.length <= max_len}
            assert greedy_words_bruteforce(max_len) == expected, max_len

    def test_words_in_full(self):
        assert greedy_words_bruteforce(2 * 3**6) == oracle_words(2 * 3**6)


class TestDensities:
    def test_set_density_closed_form(self):
        assert [greedy_set_density(n) for n in range(4)] == [
            Fraction(2, 3), Fraction(4, 7), Fraction(8, 19), Fraction(16, 55),
        ]

    def test_words_density_closed_form(self):
        assert [greedy_words_density(n) for n in range(4)] == [
            Fraction(2, 5), Fraction(4, 13), Fraction(8, 37), Fraction(16, 109),
        ]

    def test_density_matches_counts(self):
        for n in range(4):
            count = sum(
                greedy_set_contains(z) for z in range(-(3**n), 3**n + 1)
            )
            assert greedy_set_density(n) == Fraction(count, 2 * 3**n + 1)
            kept = greedy_words_bruteforce(2 * 3**n)
            assert greedy_words_density(n) == Fraction(len(kept), 1 + 4 * 3**n)

"""End-to-end desk-scale checks exercising every part of the package.

Each check recomputes a published or independently derivable quantity
and compares against it, returning a pass flag and a one-line detail.
The CLI verify-all subcommand and the acceptance test suite both run
this registry, so there is exactly one definition of what "everything
works" means.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Callable

from .counting import (
    _norm_counts_upto,
    count_norm_exact,
    count_upto,
    greatest_odd_divisor,
    proportion_exact_ppower,
    square_norm_gap,
)
from .density import (
    AnnuliSpec,
    lower_bound_density,
    rankin_density,
    upper_bound_density,
    verify_annuli_gp_free,
)
from .freegroup import (
    even_word_to_int,
    greedy_set_bruteforce,
    greedy_set_contains,
    greedy_set_density,
    greedy_words_bruteforce,
    witness_progression,
)
from .greedy import GreedyReport, build_greedy
from .quaternion import HurwitzInt, _mul, enumerate_norm, is_unit_square_representable
from .records import Record

__all__ = ["CheckResult", "run_checks"]


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail", "seconds")
    name: str
    ok: bool
    detail: str
    seconds: float


def check_bounds() -> tuple[bool, str]:
    lower = lower_bound_density()
    upper = upper_bound_density()
    six_terms = sum(
        (Fraction(1, hi * hi) - Fraction(1, lo * lo))
        for lo, hi in ((48, 45), (40, 36), (32, 27), (24, 12), (9, 8), (4, 1))
    )
    ok = (
        lower == six_terms
        and round(float(lower), 6) == 0.946589
        and upper == Fraction(20, 21)
        and round(float(upper), 6) == 0.952381
    )
    return ok, f"lower = {lower} ~ {float(lower):.6f}, upper = {upper} ~ {float(upper):.6f}"


def check_enumeration_count() -> tuple[bool, str]:
    mismatch = [n for n in range(1, 201) if len(enumerate_norm(n)) != count_norm_exact(n)]
    ratio = count_upto(10**4) / (math.pi**2 * 10**8)
    ok = not mismatch and 0.99 <= ratio <= 1.01
    return ok, f"mismatches <=200: {mismatch or 'none'}, count_upto(1e4)/(pi^2 1e8) = {ratio:.6f}"


def check_valuation_shares() -> tuple[bool, str]:
    """Valuation shares of norms up to 5000 against proportion_exact_ppower.

    For p in (2, 3) and n in (0, 1, 2), the share of Hurwitz integers of
    norm at most 5000 whose norm has p-adic valuation exactly n must be
    within 0.02 of the published formula, and for p in (2, 3, 5, 7) the
    formula's shares over n < 25 plus the closed-form tail must sum to 1.

    This check fails, and the acceptance test running it is kept failing
    so the discrepancy stays visible.  The p = 2 rows match, but at
    p = 3, n = 0 about 16/27 of the elements are observed against the
    published 5/9, a gap of 1/27, about 0.037: the derivation behind the
    odd-prime formula counts factorization pairs, which overweights the
    elements divisible by p, as those have p + 1 left divisors of norm p
    instead of one.  The tails still sum to 1.
    """
    m = 5000
    counts = _norm_counts_upto(m)
    total = sum(counts[1:])
    worst = 0.0
    worst_at = (2, 0)
    for p in (2, 3):
        for n in (0, 1, 2):
            hit = sum(
                counts[v] for v in range(1, m + 1) if v % p**n == 0 and v % p ** (n + 1) != 0
            )
            diff = abs(hit / total - float(proportion_exact_ppower(p, n)))
            if diff > worst:
                worst, worst_at = diff, (p, n)
    complete = True
    for p in (2, 3, 5, 7):
        partial = sum(proportion_exact_ppower(p, n) for n in range(25))
        if p == 2:
            tail = Fraction(1, 4**25)
        else:
            tail = Fraction(p**26 - 1, (p - 1) * p**50)
        complete = complete and partial + tail == 1
    ok = worst <= 0.02 and complete
    return ok, (
        f"max |empirical - exact| at 5000 = {worst:.4f} at (p, n) = {worst_at}, "
        f"tails sum to 1: {complete}"
    )


def check_rankin_density() -> tuple[bool, str]:
    est = rankin_density(10**6, 40)
    v = float(est.value)
    ok = 0.7707 <= v <= 0.7717 and v > 0.719745 and est.monotone_direction == "over"
    return ok, f"value = {v:.9f}, truncation = {est.truncation}"


def check_annuli() -> tuple[bool, str]:
    good = verify_annuli_gp_free(48 * 48)
    widened = AnnuliSpec(
        interval_ratios=((48, 45), (40, 36), (32, 27), (24, 12), (9, 8), (5, 1))
    )
    bad = verify_annuli_gp_free(48 * 48, widened)
    ok = good and not bad
    return ok, f"two scale blocks progression-free: {good}, widened interval rejected: {not bad}"


# The eight elements +-7e for e in 1, i, j, k, in axis-then-sign order.
_SEVEN_AXES = tuple(
    HurwitzInt.from_integers(*(sign * 7 if i == axis else 0 for i in range(4)))
    for axis in range(4)
    for sign in (1, -1)
)


def check_unit_square() -> tuple[bool, str]:
    seven = [is_unit_square_representable(q) is None for q in _SEVEN_AXES]
    two_i = is_unit_square_representable(HurwitzInt.from_integers(0, 2, 0, 0))
    ok = all(seven) and two_i is not None
    u, r = two_i if two_i else (None, None)
    return ok, f"all +-7e irrepresentable: {all(seven)}, 2i = {u} * ({r})^2"


def check_square_norm_gap() -> tuple[bool, str]:
    wrong = [
        n for n in range(1, 501) if square_norm_gap(n)[2] != (greatest_odd_divisor(n) > 23)
    ]
    return not wrong, f"gap holds iff odd part > 23 for n <= 500, exceptions: {wrong or 'none'}"


def check_greedy_quaternions() -> tuple[bool, str]:
    report = build_greedy(49)
    kept = report.included_coords()
    axes = [q.coords in kept for q in _SEVEN_AXES]
    stable = all(
        build_greedy(49, rng=random.Random(seed)).included_coords() == kept
        for seed in range(10)
    )
    ok = all(axes) and stable
    return ok, (
        f"included {len(report.included)}, excluded {len(report.excluded)}, "
        f"all +-7e kept: {all(axes)}, stable under 10 shuffles: {stable}"
    )


def _witnesses_revalidated(report: GreedyReport) -> bool:
    """Whether every exclusion witness of a greedy report is a kept progression.

    Each entry (c, (a, b, r)) must have r.norm() >= 2, c == b * r and
    b == a * r, tested first and on coordinate tuples, and then a and b
    kept.  Membership is tested against the kept elements of norm at most
    max_norm // 2 alone, the prefix of ``report.included`` that
    ``report.shell_ends`` marks.  That is exact for a report whose
    excluded elements have norm at most max_norm, as ``build_greedy``'s
    do: once N(r) >= 2 and c == b * r hold, N(b) = N(c) / N(r) <=
    max_norm / 2, and b == a * r gives N(a) <= N(b).  For any other
    report the prefix is a subset of the kept set, so the test is never
    weaker than one against all of it.
    """
    cut = report.shell_ends[report.max_norm // 2][0]
    kept = {q.coords for q in report.included[:cut]}
    for c, (a, b, r) in report.excluded:
        rc, ac, bc = r.coords, a.coords, b.coords
        if not (r.norm() >= 2 and _mul(bc, rc) == c.coords and _mul(ac, rc) == bc
                and ac in kept and bc in kept):
            return False
    return True


def check_greedy_quaternions_343() -> tuple[bool, str]:
    report = build_greedy(343)
    revalidated = _witnesses_revalidated(report)
    return revalidated, (
        f"included {len(report.included)}, excluded {len(report.excluded)}, "
        f"all witnesses revalidated: {revalidated}"
    )


def check_greedy_integers() -> tuple[bool, str]:
    brute = greedy_set_bruteforce(3**6)
    charset = {z for z in range(-(3**6), 3**6 + 1) if greedy_set_contains(z)}
    agree = brute == charset
    witnesses_ok = True
    for z in range(-(3**5), 3**5 + 1):
        w = witness_progression(z)
        if (w is None) != (z in charset):
            witnesses_ok = False
            break
        if w is not None:
            a, b, r = w
            if not (b - a == z - b == r != 0 and a in charset and b in charset):
                witnesses_ok = False
                break
    pinned = witness_progression(95) == (55, 75, 20) and witness_progression(-47) == (
        7,
        -20,
        -27,
    )
    ok = agree and witnesses_ok and pinned
    return ok, (
        f"bruteforce(3^6) == digit rule: {agree}, witnesses valid to 3^5: {witnesses_ok}, "
        f"95 -> {witness_progression(95)}, -47 -> {witness_progression(-47)}"
    )


def check_greedy_words() -> tuple[bool, str]:
    counts = []
    images = True
    for n in range(5):
        kept = greedy_words_bruteforce(2 * 3**n)
        counts.append(len(kept))
        ints = {even_word_to_int(w) for w in kept}
        images = images and ints == greedy_set_bruteforce(3**n)
    expected = [2 ** (n + 1) for n in range(5)]
    ok = counts == expected and images
    return ok, f"counts {counts} vs {expected}, images match integer greedy: {images}"


def check_density_decay() -> tuple[bool, str]:
    """(3/2)**n times the greedy set's share of [-3**n, 3**n], for n < 13.

    The published bracket asks for every value to lie in [1.3, 2.1].
    This check fails, and the acceptance test running it is kept failing
    so the discrepancy stays visible: the share is 2**(n+1) / (1 +
    2 * 3**n), so the true value is 2 * 3**n / (1 + 2 * 3**n), which
    rises from 2/3 at n = 0 towards 1 and lies in [2/3, 1), a factor of
    about two below the bracket.
    """
    lo, hi = Fraction(13, 10), Fraction(21, 10)
    products = [greedy_set_density(n) * Fraction(3, 2) ** n for n in range(13)]
    ok = all(lo <= v <= hi for v in products)
    return ok, (
        f"(3/2)^n * share in [{float(min(products)):.4f}, {float(max(products)):.4f}], "
        f"required [1.3, 2.1]"
    )


_REGISTRY: tuple[tuple[str, Callable[[], tuple[bool, str]], bool], ...] = (
    ("bounds-six-decimals", check_bounds, True),
    ("enumeration-matches-count-formula", check_enumeration_count, True),
    ("valuation-shares", check_valuation_shares, True),
    ("rankin-density-bracket", check_rankin_density, True),
    ("annuli-progression-free", check_annuli, True),
    ("unit-square-representability", check_unit_square, True),
    ("square-norm-count-gap", check_square_norm_gap, True),
    ("greedy-quaternions-49", check_greedy_quaternions, True),
    ("greedy-integers-witnesses", check_greedy_integers, True),
    ("greedy-words-counts", check_greedy_words, True),
    ("density-decay-bracket", check_density_decay, True),
    ("greedy-quaternions-343", check_greedy_quaternions_343, False),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every registered check; quick skips the 343 greedy run."""
    results = []
    for name, fn, in_quick in _REGISTRY:
        if quick and not in_quick:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, never swallow
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results

"""Greedy geometric-progression-free set of Hurwitz integers.

Processing all elements in order of increasing norm (lexicographic
within a norm), an element is kept unless it completes a three-term
progression a, a*r, a*r*r with non-unit ratio whose earlier terms were
both kept.  Since norms in such a progression grow strictly, only the
candidate-as-last-term case can ever fire, which the builder exploits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .counting import count_norm_exact
from .quaternion import HurwitzInt, _left_quotient, _mul, _norm_coords, enumerate_norm

__all__ = [
    "GreedyReport",
    "build_greedy",
    "greatest_odd_divisor",
    "is_unit_square_representable",
    "square_norm_gap",
]


@dataclass(frozen=True)
class GreedyReport:
    """Outcome of a greedy run up to max_norm.

    included holds the kept elements in processing order.  excluded
    pairs each rejected element with the witness (a, b, r) such that
    a, a*r == b are kept and b*r is the rejected element.
    """

    max_norm: int
    included: tuple[HurwitzInt, ...]
    excluded: tuple[tuple[HurwitzInt, tuple[HurwitzInt, HurwitzInt, HurwitzInt]], ...]

    def included_coords(self) -> frozenset[tuple[int, int, int, int]]:
        return frozenset(q.coords for q in self.included)


def build_greedy(max_norm: int, rng: random.Random | None = None) -> GreedyReport:
    """Run the greedy progression-free selection over norms 1..max_norm.

    A candidate c of norm N = s * t * t (t >= 2) is rejected exactly when
    c = a * r * r for a ratio r of norm t with a and a * r kept.  Both
    lie below norm N, so decisions within a norm are independent: an rng
    shuffles the within-norm order, which must not change the outcome.

    Each shell's progressions are generated forwards, over splits t
    ascending, ratios r of norm t in enumeration order and kept a of
    norm s with b = a * r kept: c = b * r keeps the first (a, b, r) it
    gets.  As a = c * (r*r)^-1 is unique for fixed r, that is the witness
    a backward search dividing c by each r * r stops at.  The kept set
    is closed under negation, so -b = a * (-r) is kept exactly when b
    is, and of r and -r only the one enumerated first is scanned.

    Args:
        max_norm: largest norm processed, at least 1.
        rng: optional shuffler for the within-norm candidate order.

    Raises:
        ValueError: if max_norm < 1.
    """
    if max_norm < 1:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    included, excluded, kept = [], [], set()
    kept_by_norm: dict[int, list[tuple[int, int, int, int]]] = {}
    ratio_classes: dict[int, list[HurwitzInt]] = {}
    for n in range(1, max_norm + 1):
        candidates = enumerate_norm(n)
        if rng is not None:
            candidates = list(candidates)
            rng.shuffle(candidates)
        witnesses = {}
        for t in range(2, math.isqrt(n) + 1):
            if n % (t * t):
                continue
            if t not in ratio_classes:
                ratio_classes[t] = [r for r in enumerate_norm(t) if r.coords < (-r).coords]
            firsts = kept_by_norm[n // (t * t)]
            for r in ratio_classes[t]:
                rc = r.coords
                for a in firsts:
                    b = _mul(a, rc)
                    if b in kept:
                        witnesses.setdefault(_mul(b, rc), (a, b, r))
        shell = kept_by_norm[n] = []
        for c in candidates:
            cc = c.coords
            witness = witnesses.get(cc)
            if witness is None:
                included.append(c)
                shell.append(cc)
            else:
                a, b, r = witness
                excluded.append((c, (HurwitzInt(*a), HurwitzInt(*b), r)))
        kept.update(shell)
    return GreedyReport(max_norm, tuple(included), tuple(excluded))


def is_unit_square_representable(q: HurwitzInt) -> tuple[HurwitzInt, HurwitzInt] | None:
    """Search for a unit u and element r with q == u * r * r.

    The norm of q must be a perfect square m * m; candidate r then runs
    over the norm-m class in enumeration order, and for each r one exact
    division solves u * r * r == q, as conj(r * r) * conj(u) == conj(q).

    Args:
        q: nonzero element whose norm is a perfect square.

    Returns:
        A pair (u, r) with q == u * r * r, or None if no such pair
        exists.

    Raises:
        ValueError: if q is zero or its norm is not a perfect square.
    """
    if q.is_zero():
        raise ValueError("zero quaternion not supported")
    n = q.norm()
    m = math.isqrt(n)
    if m * m != n:
        raise ValueError(f"norm {n} is not a perfect square")
    a, b, c, d = q.coords
    conj_q = (a, -b, -c, -d)
    for r in _norm_coords(m):
        a, b, c, d = _mul(r, r)
        # Any quotient has norm n / (m * m) = 1, so it is a unit.
        conj_u = _left_quotient((a, -b, -c, -d), conj_q)
        if conj_u is not None:
            a, b, c, d = conj_u
            return (HurwitzInt(a, -b, -c, -d), HurwitzInt(*r))
    return None


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


def greatest_odd_divisor(n: int) -> int:
    """Largest odd divisor of n (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n >> ((n & -n).bit_length() - 1)

"""Greedy geometric-progression-free set of Hurwitz integers.

Processing all elements in order of increasing norm (lexicographic
within a norm), an element is kept unless it completes a three-term
progression a, a*r, a*r*r with non-unit ratio whose earlier terms were
both kept.  Since norms in such a progression grow strictly, only the
candidate-as-last-term case can ever fire, which the builder exploits.
``build_greedy`` says why it may scan one first term per left-unit orbit.
"""

from __future__ import annotations

import math
import random

from .quaternion import HurwitzInt, _collector_paused, _mul, enumerate_norm, units
from .records import Record

__all__ = ["GreedyReport", "build_greedy"]


class GreedyReport(Record):
    """Outcome of a greedy run up to max_norm.

    included holds the kept elements in processing order.  excluded
    pairs each rejected element with the witness (a, b, r) such that
    a, a*r == b are kept and b*r is the rejected element.  Both list
    their entries shell by shell, in norm order, and shell_ends[n] is
    (len(included), len(excluded)) once the shell of norm n is done, for
    n = 0..max_norm: the shell of norm n is included[i:j] and
    excluded[e:f] for (i, e), (j, f) = shell_ends[n - 1], shell_ends[n].
    """

    __slots__ = ("max_norm", "included", "excluded", "shell_ends")
    max_norm: int
    included: tuple[HurwitzInt, ...]
    excluded: tuple[tuple[HurwitzInt, tuple[HurwitzInt, HurwitzInt, HurwitzInt]], ...]
    shell_ends: tuple[tuple[int, int], ...]

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
    a backward search dividing c by each r * r stops at, and the order
    in which the first terms are visited does not matter.  The kept set
    is closed under negation, so -b = a * (-r) is kept exactly when b
    is, and of r and -r only the one enumerated first is scanned.  The
    ratios of norm t are taken from shell t itself, in enumeration order
    before its shuffle, whenever t * t <= max_norm, so the build
    enumerates each norm class once.

    The scan visits one first term per left-unit orbit.  The kept set is
    closed under left multiplication by each unit u, by induction on the
    norm: c = a * r * r with a and a * r kept gives u * c = (u * a) * r *
    r with u * a and u * a * r kept, and u^-1 gives the converse.  So
    for each r, u * c is reached only from u * a, which is kept with
    u * a * r exactly when a is kept with a * r: the first r to reach c
    is the first to reach u * c, with witness (u * a, u * b, r).  A pair
    (r, a) whose c is already recorded, or whose b is not kept, is
    skipped; otherwise all 24 products u * c are recorded at once.
    Left units act freely, so every orbit has 24 elements, and a kept
    shell that is not a union of whole orbits raises.

    The scan runs on integer keys.  For four integers x, key(x) =
    x_0 + x_1 * B + x_2 * B**2 + x_3 * B**3, where B is the least power
    of two with B * B > 64 * max_norm, so B > 8 * sqrt(max_norm).  An
    element c is looked up by key(2c), the key of twice its doubled
    coordinates.  A doubled coordinate of a norm-N element is at most
    2 * sqrt(N) in size, so every digit of 2c lies strictly inside
    (-B/2, B/2), where the balanced base-B key is injective.  Right
    multiplication is linear: with the column keys P_j = key(2e_j * r)
    and Q_j = key(2e_j * r * r), for 2e_j the doubled j-th unit vector,
    key(2(a * r)) = sum(a_j * P_j) and key(2(a * r * r)) = sum(a_j * Q_j)
    over the doubled coordinates a_j of a: four integer products each,
    with no ``_mul`` and no tuple built.  Left multiplication is linear
    too: with U_j = key(u * 2e_j), key(2(u * x)) = sum(x_j * U_j), which
    gives the 24 keys of an orbit from the coordinates of one element.
    These rows, built by ``_mul``, give every other key: the identity's
    holds the keys of the 2e_j, and P_j (Q_j) is half the dot product of
    r (r * r) with the row of the unit 2e_j.  Witnesses are keyed by
    key(2c) and hold the kept elements a and b themselves, u * a from
    the orbit entry and u * b looked up by key as the progression is
    generated, so each (a, b, r) is built once and becomes c's reported
    witness.

    Only the shells a later shell reads are stored.  A progression with
    last term of norm N = s * t * t <= max_norm reads its first term a,
    of norm s, and its middle term b = a * r, of norm s * t.  So shell n
    is read as a first-term shell exactly when n <= max_norm / 4 (take
    t = 2), and as a middle-term shell exactly when some t >= 2 divides
    n with n * t <= max_norm, that is when n * p <= max_norm for the
    least prime p dividing n.  Each first-term shell is stored as one
    entry per kept orbit, with its coordinates and its 24 kept elements
    in unit order; the kept elements of a middle-term shell are stored
    by key, each keyed once, as the shell is classified.  Every other
    shell is only appended to the output.  A shell no progression
    reaches, such as every squarefree one, is kept whole with no lookup
    per candidate.

    The build runs with the cyclic garbage collector paused, after the
    argument check (see ``quaternion._collector_paused``).

    Args:
        max_norm: largest norm processed, at least 1.
        rng: optional source of the within-norm candidate order.  Each
            shell is shuffled by ``_shuffle``, which calls only
            ``rng.getrandbits``; for a ``random.Random`` the order and the
            generator's final state are those of ``rng.shuffle``.  A
            subclass that overrides ``random()`` but not ``getrandbits``
            gets another order than its own ``shuffle`` would give, still
            uniform.

    Raises:
        ValueError: if max_norm < 1.
    """
    if max_norm < 1:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    with _collector_paused():
        base = 1 << (((64 * max_norm).bit_length() + 1) // 2)
        # key(2u * c) is the sum of c's doubled coordinates times the unit's
        # row U_0..U_3, and key(2c) the sum of them times the identity's.
        unit_columns = [tuple(_key(_mul(u.coords, e), base) for e in _BASIS) for u in units()]
        rows = dict(zip([u.coords for u in units()], unit_columns))
        k0, k1, k2, k3 = rows[_BASIS[0]]
        quarter = max_norm // 4
        included, excluded, shell_ends = [], [], [(0, 0)]
        include, exclude = included.append, excluded.append
        kept: dict[int, HurwitzInt] = {}
        orbits_by_norm: dict[int, list[tuple[int, int, int, int, tuple[HurwitzInt, ...]]]] = {}
        ratio_columns: dict[int, list[tuple]] = {}
        for n in range(1, max_norm + 1):
            candidates = enumerate_norm(n)
            if n * n <= max_norm:
                ratio_columns[n] = [_columns(r, rows) for r in candidates
                                    if r.coords < (-r.da, -r.db, -r.dc, -r.dd)]
            if rng is not None:
                _shuffle(rng, candidates)
            witnesses = {}
            for t in range(2, math.isqrt(n) + 1):
                if n % (t * t):
                    continue
                orbits = orbits_by_norm[n // (t * t)]
                for r, rc, p0, p1, p2, p3, q0, q1, q2, q3 in ratio_columns[t]:
                    for a0, a1, a2, a3, orbit in orbits:
                        # c's whole orbit is recorded at once, so a recorded c
                        # skips the lookup of b.
                        if a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3 in witnesses:
                            continue
                        if a0 * p0 + a1 * p1 + a2 * p2 + a3 * p3 not in kept:
                            continue
                        b = b0, b1, b2, b3 = _mul((a0, a1, a2, a3), rc)
                        c0, c1, c2, c3 = _mul(b, rc)
                        for (u0, u1, u2, u3), a in zip(unit_columns, orbit):
                            witnesses[c0 * u0 + c1 * u1 + c2 * u2 + c3 * u3] = (
                                a, kept[b0 * u0 + b1 * u1 + b2 * u2 + b3 * u3], r)
            # A stored shell's kept elements by key: a first-term shell collects
            # them in its own dict, any other middle-term shell in kept.
            middle = any(n % t == 0 for t in range(2, max_norm // n + 1))
            shell = {} if n <= quarter else kept if middle else None
            if not witnesses:
                included.extend(candidates)
                if shell is not None:
                    shell.update({c.da * k0 + c.db * k1 + c.dc * k2 + c.dd * k3: c
                                  for c in candidates})
            else:
                get = witnesses.get
                for c in candidates:
                    key = c.da * k0 + c.db * k1 + c.dc * k2 + c.dd * k3
                    witness = get(key)
                    if witness is None:
                        include(c)
                        if shell is not None:
                            shell[key] = c
                    else:
                        exclude((c, witness))
            if n <= quarter:
                if middle:
                    kept.update(shell)
                orbits_by_norm[n] = _orbits(shell, unit_columns)
            shell_ends.append((len(included), len(excluded)))
        return GreedyReport(max_norm, tuple(included), tuple(excluded), tuple(shell_ends))


_BASIS = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place as ``rng.shuffle(x)`` does, with only ``rng.getrandbits``.

    The Fisher-Yates walk of ``random.Random.shuffle``: for i from
    len(x) - 1 down to 1, x[i] is swapped with x[j] for j drawn below
    i + 1 by the rejection loop of ``Random._randbelow_with_getrandbits``,
    which redraws ``getrandbits(k)`` with k = (i + 1).bit_length() while
    it exceeds i.  That code is the same in CPython 3.11 to 3.13, so for
    a ``random.Random`` the permutation and the generator's final state
    equal those of ``rng.shuffle(x)``.  The walk is cut into runs of i
    that share k, which is computed once per run rather than once per
    element through a method call.  Only ``rng.getrandbits`` is called
    (see ``build_greedy`` on what that means for a subclass).
    """
    getrandbits = rng.getrandbits
    high = len(x) - 1
    while high > 0:
        k = (high + 1).bit_length()
        # The run holds every i with i + 1 of bit length k: i >= 2**(k-1) - 1.
        low = (1 << (k - 1)) - 1
        for i in range(high, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        high = low - 1


def _key(x: tuple[int, int, int, int], base: int) -> int:
    """The balanced base-``base`` key of four integers (see build_greedy)."""
    x0, x1, x2, x3 = x
    return x0 + base * (x1 + base * (x2 + base * x3))


def _columns(r: HurwitzInt, rows: dict[tuple[int, int, int, int], tuple]) -> tuple:
    """r, its coordinates and its column keys P_0..P_3, Q_0..Q_3 (see build_greedy).

    rows maps each unit's doubled coordinates to its key row.  The rows
    of 1, i, j and k hold only entries +-2 * B**k, so halving the dot
    products of r and r * r with them is exact.
    """
    rc = r.coords
    (e0, e1, e2, e3), (i0, i1, i2, i3), (j0, j1, j2, j3), (k0, k1, k2, k3) = map(rows.get, _BASIS)
    columns = [r, rc]
    for x0, x1, x2, x3 in (rc, _mul(rc, rc)):
        columns += ((x0 * e0 + x1 * e1 + x2 * e2 + x3 * e3) // 2,
                    (x0 * i0 + x1 * i1 + x2 * i2 + x3 * i3) // 2,
                    (x0 * j0 + x1 * j1 + x2 * j2 + x3 * j3) // 2,
                    (x0 * k0 + x1 * k1 + x2 * k2 + x3 * k3) // 2)
    return tuple(columns)


def _orbits(shell: dict[int, HurwitzInt],
            unit_columns: list[tuple[int, int, int, int]]) -> list[tuple]:
    """One (a_0, a_1, a_2, a_3, orbit) entry per left-unit orbit of a kept shell.

    The shell maps key(2a) to each kept element a, in processing order.
    The orbit holds the 24 elements u * a for the units u in order, None
    for any missing from the shell.  The shell is a union of whole orbits
    (see build_greedy) exactly when it holds 24 elements per entry.

    Raises:
        AssertionError: if the shell is not a union of whole orbits.
    """
    seen: set[int] = set()
    entries = []
    for key, a in shell.items():
        if key in seen:
            continue
        a0, a1, a2, a3 = a.da, a.db, a.dc, a.dd
        orbit = [a0 * u0 + a1 * u1 + a2 * u2 + a3 * u3 for u0, u1, u2, u3 in unit_columns]
        seen.update(orbit)
        entries.append((a0, a1, a2, a3, tuple(map(shell.get, orbit))))
    if 24 * len(entries) != len(shell):
        raise AssertionError(f"kept shell of {len(shell)} elements is not a union of unit orbits")
    return entries

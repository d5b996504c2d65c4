"""Exact arithmetic in the Hurwitz quaternion order.

A Hurwitz integer is a quaternion a + bi + cj + dk whose coordinates are
either all rational integers or all halves of odd integers.  Storing the
doubled coordinates (2a, 2b, 2c, 2d) keeps every computation in plain
Python integers: the four stored values share a single parity, products
of two elements have doubled coordinates divisible by 2 after expansion,
and the reduced norm (a^2 + b^2 + c^2 + d^2) is always an exact integer.
Nothing here touches floating point.

Norm classes come from one lazy row scan over a two-square table,
``_norm_rows``, already in lexicographic order.  The constructor checks
the shared parity of its four arguments; ``enumerate_norm`` alone skips
that check, because the scan yields only same-parity quadruples.
``enumerate_norm`` builds a class with the cyclic garbage collector
paused (see ``_collector_paused``).  ``factor_modelled`` scans no class:
it takes each prime factor of norm p as the least right associate of a
generator of the right ideal cH + pH, c the cofactor, which the order's
Euclidean algorithm (``_right_gcd``) finds in O(log p) steps.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

from .counting import is_rational_prime
from .records import Record

__all__ = [
    "HurwitzInt",
    "ModelledFactorization",
    "ONE",
    "enumerate_norm",
    "factor_modelled",
    "format_elements",
    "format_norm",
    "is_gp_triple",
    "is_unit_square_representable",
    "left_divide",
    "units",
]


def _mul(p: tuple[int, int, int, int], q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Product of two elements given as doubled-coordinate tuples.

    The one Hamilton product in the package: ``HurwitzInt.__mul__`` wraps
    it, and ``_left_quotient``, ``_right_gcd``, ``_least_right_associate``,
    ``is_unit_square_representable`` and ``greedy`` call it directly on
    tuples.
    """
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    # Products of doubled coordinates carry a factor 4; one factor 2
    # stays in the result's doubled coordinates, the other divides out.
    return ((a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2) // 2,
            (a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2) // 2,
            (a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2) // 2,
            (a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2) // 2)


class HurwitzInt:
    """A Hurwitz integer held as four doubled coordinates of equal parity.

    ``HurwitzInt(da, db, dc, dd)`` represents (da + db*i + dc*j + dd*k)/2.
    Use :meth:`from_integers` for elements with integer coordinates.
    Instances are immutable in practice (nothing mutates the slots) and
    hash by coordinate tuple, so they can live in sets and dict keys.
    """

    __slots__ = ("da", "db", "dc", "dd")

    def __init__(self, da: int, db: int, dc: int, dd: int):
        if (da ^ db) & 1 or (da ^ dc) & 1 or (da ^ dd) & 1:
            raise ValueError(
                f"doubled coordinates must share one parity, got {(da, db, dc, dd)}"
            )
        self.da = da
        self.db = db
        self.dc = dc
        self.dd = dd

    @classmethod
    def from_integers(cls, a: int, b: int, c: int, d: int) -> "HurwitzInt":
        """Build the element a + bi + cj + dk with integer coordinates."""
        return cls(2 * a, 2 * b, 2 * c, 2 * d)

    @property
    def coords(self) -> tuple[int, int, int, int]:
        """Doubled coordinates as a tuple, the canonical sort/hash key."""
        return (self.da, self.db, self.dc, self.dd)

    def norm(self) -> int:
        """Reduced norm a^2 + b^2 + c^2 + d^2, exact."""
        da, db, dc, dd = self.da, self.db, self.dc, self.dd
        return (da * da + db * db + dc * dc + dd * dd) // 4

    def is_zero(self) -> bool:
        return self.da == 0 and self.db == 0 and self.dc == 0 and self.dd == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __mul__(self, other: "HurwitzInt") -> "HurwitzInt":
        if not isinstance(other, HurwitzInt):
            return NotImplemented
        return HurwitzInt(*_mul(self.coords, other.coords))

    def __neg__(self) -> "HurwitzInt":
        return HurwitzInt(-self.da, -self.db, -self.dc, -self.dd)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HurwitzInt):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        return _TEXT % (self.da, self.db, self.dc, self.dd)

    def __repr__(self) -> str:
        return f"HurwitzInt({self.da}, {self.db}, {self.dc}, {self.dd})"


ONE = HurwitzInt.from_integers(1, 0, 0, 0)

# The text of an element, "(da,db,dc,dd)/2", in two halves:
# ``HurwitzInt.__str__`` and ``format_elements`` format the whole and
# ``format_norm`` each half, so all three render elements alike.
_HEAD = "(%d,%d,"
_TAIL = "%d,%d)/2"
_TEXT = _HEAD + _TAIL


def format_elements(coords: Iterable[tuple[int, int, int, int]], end: str = "") -> list[str]:
    """``str(q) + end`` for each element given by its doubled-coordinate tuple.

    One ``%``-formatting per tuple, mapped at C level, with no
    ``HurwitzInt`` built.
    """
    return list(map((_TEXT + end.replace("%", "%%")).__mod__, coords))


def format_norm(norm: int) -> list[str]:
    """``[str(q) for q in enumerate_norm(norm)]``, rendered from the row scan.

    No ``HurwitzInt`` is built.  A row of ``_norm_rows`` is the head
    "(da,db," joined to each tail "dc,dd)/2" of its two-square value,
    whose tails are formatted once per call; the rows are then joined
    and split into elements, so that no element text is built by a
    Python-level step of its own.

    Raises:
        ValueError: if norm < 1.
    """
    if norm < 1:
        raise ValueError(f"norm must be positive, got {norm}")
    target = 4 * norm
    tails: dict[int, list[str]] = {}
    rows = []
    for da, db, row in _norm_rows(norm):
        rest = target - da * da - db * db
        tail = tails.get(rest)
        if tail is None:
            tail = tails[rest] = list(map(_TAIL.__mod__, row))
        head = _HEAD % (da, db)
        rows.append(head + ("\n" + head).join(tail))
    return "\n".join(rows).split("\n")


# Two-square table behind the norm-class scan.  A quadruple of doubled
# norm 4N is a same-parity pair (da, db) with m1 = da^2 + db^2 followed
# by a stored pair (dc, dd) with dc^2 + dd^2 = 4N - m1.  Only same-parity
# pairs are stored: both even sum to 0 mod 4 and both odd to 2 mod 4,
# so one table serves both kinds without sharing an index.  As 4N is
# 0 mod 4, m1 and 4N - m1 always fall in the same residue class, which
# makes every glued quadruple share one parity for free.  Each row is
# filled u-major with v ascending, so it is in lexicographic order.
_pairs: list[list[tuple[int, int]]] = [[]]


def _pair_rows(limit: int) -> list[list[tuple[int, int]]]:
    """Rows 0..limit of the table, walking only the disc u^2 + v^2 <= limit."""
    pairs = [[] for _ in range(limit + 1)]
    top = math.isqrt(limit)
    for u in range(-top, top + 1):
        uu = u * u
        lim = math.isqrt(limit - uu)
        # v runs over the values of u's parity in [-lim, lim].
        for v in range(-lim + ((lim ^ u) & 1), lim + 1, 2):
            pairs[uu + v * v].append((u, v))
    return pairs


def _extend_pair_table(limit: int) -> None:
    have = len(_pairs) - 1
    if limit > have:
        # Round up so repeated slightly-larger requests do not rebuild.
        _pairs[:] = _pair_rows(max(limit, 2 * have, 1024))


def _norm_rows(norm: int) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """The norm class as rows (da, db, row), lazily, in lexicographic order.

    The one norm-class scan: (da, db) runs lexicographically over
    same-parity pairs, and row is the ``_pairs`` list of the (dc, dd)
    that complete it to doubled norm 4 * norm, already sorted.  Only
    non-empty rows are yielded: most pairs leave a remainder that is not
    a sum of two squares, and skipping them here spares each caller a
    generator resume per empty row.  Every (da, db, dc, dd) glued this
    way shares one parity (see ``_pairs``).
    """
    target = 4 * norm
    _extend_pair_table(target)
    top = math.isqrt(target)
    for da in range(-top, top + 1):
        rest = target - da * da
        lim = math.isqrt(rest)
        # db runs over the values of da's parity in [-lim, lim].
        for db in range(-lim + ((lim ^ da) & 1), lim + 1, 2):
            row = _pairs[rest - db * db]
            if row:
                yield da, db, row


def _norm_coords(norm: int) -> Iterator[tuple[int, int, int, int]]:
    """Doubled coordinates of the norm class, lazily, in lexicographic order.

    Flattens ``_norm_rows``, so a caller may stop at the first hit
    without building the rest of the class.
    """
    for da, db, row in _norm_rows(norm):
        for dc, dd in row:
            yield (da, db, dc, dd)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the body of a ``with`` block.

    Building a norm class, or the greedy set on top of many of them,
    creates a great many ``HurwitzInt``s and tuples, none of which can
    form a reference cycle, so each collection that their allocation
    sets off re-scans them for nothing.  Measured on a 2-core machine
    with Python 3.11, collections took 28-34% of the time of the greedy
    to norm 100 and of a mix of queries led by large norm classes, and
    ``enumerate_norm(10007)`` went from about 207 ms to 128 ms paused.
    Reference counting still frees everything the block drops.

    Re-enabling alone would leave one cost: the first young collection
    would scan every survivor of the block (about 12% of the time of the
    greedy to norm 100).  So if the collector is on and the caller holds
    no frozen objects, ``gc.collect(1)`` on entry collects the caller's
    young garbage, so that no garbage cycle is promoted, and on exit
    ``gc.freeze()`` then ``gc.unfreeze()`` move every tracked object into
    the oldest generation without scanning it.  In CPython 3.11's
    ``gcmodule.c`` freeze splices each generation onto the permanent one
    and zeroes the young count, and unfreeze splices the permanent
    generation onto the oldest: two constant-time list moves.  Objects
    moved this way do not count toward the survivors that set off a full
    collection.

    All of this is process-wide: the pause holds for every thread, and
    a ``gc.freeze()`` made by another thread between the two calls on
    exit would be undone.  The pause restores only what it changed: a
    collector disabled on entry stays disabled, a nested pause does
    nothing, and a caller holding frozen objects gets the bare pause,
    since ``unfreeze`` would thaw them.  CPython 3.12 starts with
    interpreter objects frozen (``gc.get_freeze_count()`` is 375 at
    start-up on 3.12.1), so there every pause is the bare one.
    """
    enabled = gc.isenabled()
    move = enabled and not gc.get_freeze_count()
    if move:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if move and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def enumerate_norm(norm: int) -> list[HurwitzInt]:
    """All Hurwitz integers of the given reduced norm, sorted by coords.

    Walks the rows of ``_norm_rows`` and builds each element in place
    with its four slot stores.  This is the one place that skips the
    constructor's parity check: the two-square table only glues pairs
    of one residue class mod 4, so every quadruple it yields already
    shares one parity.

    Args:
        norm: target reduced norm, at least 1.

    Returns:
        The full norm class in lexicographic doubled-coordinate order;
        its length always matches the odd-divisor-sum count formula.

    Raises:
        ValueError: if norm < 1.
    """
    if norm < 1:
        raise ValueError(f"norm must be positive, got {norm}")
    new = object.__new__
    out = []
    append = out.append
    with _collector_paused():
        for da, db, row in _norm_rows(norm):
            for dc, dd in row:
                # Parity is guaranteed by the scan, so __init__ is bypassed.
                q = new(HurwitzInt)
                q.da = da
                q.db = db
                q.dc = dc
                q.dd = dd
                append(q)
    return out


_UNITS = tuple(enumerate_norm(1))


def units() -> tuple[HurwitzInt, ...]:
    """The 24 units of the order, in lexicographic coordinate order.

    Eight elements with a single coordinate equal to +-1 and sixteen of
    the form (+-1 +- i +- j +- k)/2.
    """
    return _UNITS


def _left_quotient(a: tuple[int, int, int, int],
                   b: tuple[int, int, int, int]) -> tuple[int, int, int, int] | None:
    """Doubled coordinates of the r with a * r == b, or None if there is none.

    The one exact division in the package, on doubled-coordinate tuples:
    ``left_divide`` wraps it, and ``factor_modelled`` and
    ``is_unit_square_representable`` call it directly.  Over the
    rational quaternions r = conj(a) * b / norm(a) is the only
    candidate, so divisibility reduces to an integrality test on it.

    Raises:
        ZeroDivisionError: if a is zero.
    """
    a1, b1, c1, d1 = a
    n = (a1 * a1 + b1 * b1 + c1 * c1 + d1 * d1) // 4
    if n == 0:
        raise ZeroDivisionError("left division by zero quaternion")
    da, db, dc, dd = _mul((a1, -b1, -c1, -d1), b)
    if da % n or db % n or dc % n or dd % n:
        return None
    da, db, dc, dd = da // n, db // n, dc // n, dd // n
    if (da ^ db) & 1 or (da ^ dc) & 1 or (da ^ dd) & 1:
        return None
    return (da, db, dc, dd)


def left_divide(a: HurwitzInt, b: HurwitzInt) -> HurwitzInt | None:
    """Exact left quotient: the r with a * r == b, if one exists.

    Args:
        a: left divisor, must be nonzero.
        b: dividend.

    Returns:
        The unique r with a * r == b, or None when a does not left
        divide b.

    Raises:
        ZeroDivisionError: if a is zero.
    """
    quot = _left_quotient(a.coords, b.coords)
    return None if quot is None else HurwitzInt(*quot)


class ModelledFactorization(Record):
    """A factorization of a Hurwitz integer following a fixed norm model.

    ``factors[i]`` has reduced norm ``prime_norms[i]`` and the ordered
    product of the factors reproduces the original element exactly.
    """

    __slots__ = ("prime_norms", "factors")
    prime_norms: tuple[int, ...]
    factors: tuple[HurwitzInt, ...]

    def product(self) -> HurwitzInt:
        acc = ONE
        for f in self.factors:
            acc = acc * f
        return acc


def _right_gcd(a: tuple[int, int, int, int],
               b: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Doubled coordinates of a g with gH = aH + bH, by the Euclidean algorithm.

    The Hurwitz order is right Euclidean: every real quaternion lies
    within distance 1/sqrt(2) of a Hurwitz integer, the nearer of its
    nearest Lipschitz point (integer coordinates) and its nearest point
    with half-odd coordinates.  So with t that point for b^-1 a, the
    remainder a - b*t = b(b^-1 a - t) has at most half the norm of b,
    and (a, b) -> (b, a - b*t) keeps the right ideal aH + bH while b
    reaches 0 in O(log norm(b)) steps.

    Raises:
        AssertionError: if a remainder fails to shrink, which would
            leave the loop without a bound.
    """
    while any(b):
        b1, b2, b3, b4 = b
        n = (b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4) // 4
        m = 2 * n
        # x = conj(b) * a = n * b^-1 a, so b^-1 a has real coordinates x / m.
        x = _mul((b1, -b2, -b3, -b4), a)
        # t is first the nearest Lipschitz point, in doubled coordinates,
        # and e holds m times the coordinates of b^-1 a - t, each in [-n, n).
        t = [2 * ((xi + n) // m) for xi in x]
        e = [xi - n * ti for xi, ti in zip(x, t)]
        # The nearest half-odd point moves each coordinate by 1/2 towards
        # b^-1 a, so it is nearer exactly when sum(|e_i|) / m exceeds 1.
        if sum(map(abs, e)) > m:
            t = [ti + 1 if ei >= 0 else ti - 1 for ti, ei in zip(t, e)]
        a1, a2, a3, a4 = a
        s1, s2, s3, s4 = _mul(b, t)
        r1, r2, r3, r4 = r = (a1 - s1, a2 - s2, a3 - s3, a4 - s4)
        if (r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4) // 4 >= n:
            raise AssertionError(f"Euclid step from {a} by {b} leaves {r}, no smaller")
        a, b = b, r
    return a


def _least_right_associate(g: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The lexicographically least of the 24 right associates g * u of g.

    Each unit is w^k * s, with w = (1 + i + j + k)/2, k in 0, 1, 2 and s
    one of +-1, +-i, +-j, +-k.  Right multiplication by such an s only
    permutes and negates coordinates, so two products give all 24.
    """
    return min(min((a, b, c, d), (-a, -b, -c, -d), (-b, a, d, -c), (b, -a, -d, c),
                   (-c, -d, a, b), (c, d, -a, -b), (-d, c, -b, a), (d, -c, b, -a))
               for a, b, c, d in (g, _mul(g, (1, 1, 1, 1)), _mul(g, (-1, 1, 1, 1))))


def factor_modelled(q: HurwitzInt, prime_norms) -> ModelledFactorization:
    """Factor q into primes whose norms follow the given ordered model.

    Works by successive extraction: for each modelled norm p, take the
    lexicographically least element of norm p that left divides what
    remains, the cofactor c, and divide it out.  That element is found
    without a scan of the norm-p class.  The order is Euclidean, so the
    right ideal cH + pH is gH for a g that ``_right_gcd`` finds.

    - Index.  As p divides N(c), c has a left divisor d of norm p (Conway
      and Smith, *On Quaternions and Octonions*, ch. 5).  As d divides c
      and p = d * conj(d), dH contains gH, which contains pH; so p
      divides N(g), which divides N(p) = p^2.  A right ideal gH has index
      N(g)^2 in H.
    - If c is not in pH, then gH is not pH, so N(g) = p and cH + pH has
      index p^2.  Each norm-p left divisor d of c is then g times a unit:
      the norm-p left divisors of c are exactly the 24 right associates
      g * u, and the least of them is the one a lexicographic scan of the
      class would meet first.
    - If c is in pH, then gH = pH and N(g) = p^2.  Every norm-p element
      divides p, hence c, so the first element of the class is taken.

    The unit left over at the end is absorbed into the last factor, which
    keeps its norm.

    One limit: a cofactor in pH at a large p still reads the first
    element of the norm-p class, which builds the two-square table up
    to 4p.

    Args:
        q: nonzero element to factor.
        prime_norms: ordered rational primes multiplying to norm(q).

    Returns:
        A ModelledFactorization whose factor product equals q.

    Raises:
        ValueError: if q is zero, a modelled norm is not prime, or the
            model does not multiply to norm(q).
    """
    if q.is_zero():
        raise ValueError("cannot factor the zero quaternion")
    model = tuple(prime_norms)
    for p in model:
        if not is_rational_prime(p):
            raise ValueError(f"modelled norm {p} is not prime")
    if math.prod(model) != q.norm():
        raise ValueError(
            f"model {model} multiplies to {math.prod(model)}, norm is {q.norm()}"
        )
    if not model:
        if q == ONE:
            return ModelledFactorization((), ())
        raise ValueError("empty model only factors the identity")
    factors = []
    rest = q.coords
    for p in model:
        g = _right_gcd((2 * p, 0, 0, 0), rest)
        g1, g2, g3, g4 = g
        if (g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4) // 4 == p:
            cand = _least_right_associate(g)
        else:
            cand = next(_norm_coords(p))
        quot = _left_quotient(cand, rest)
        if quot is None:
            raise AssertionError(f"no norm-{p} left factor of {rest}; model {model}")
        factors.append(HurwitzInt(*cand))
        rest = quot
    rest = HurwitzInt(*rest)
    if not rest.is_unit():
        raise AssertionError(f"factors of {q} leave the non-unit {rest}; model {model}")
    factors[-1] = factors[-1] * rest
    result = ModelledFactorization(model, tuple(factors))
    if result.product() != q:
        raise AssertionError(f"factors {result.factors} do not multiply to {q}")
    return result


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


def is_gp_triple(a: HurwitzInt, b: HurwitzInt, c: HurwitzInt) -> bool:
    """Whether (a, b, c) is a geometric progression with a non-unit ratio.

    True exactly when some r of norm at least 2 satisfies a * r == b and
    b * r == c.  For nonzero a the only candidate ratio is the exact
    left quotient of b by a, so no search is needed.
    """
    if a.is_zero():
        # 0 * r == 0 for every r, so any ratio of norm >= 2 works.
        return b.is_zero() and c.is_zero()
    r = left_divide(a, b)
    if r is None or r.norm() < 2:
        return False
    return b * r == c

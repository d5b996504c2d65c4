import functools
import itertools
import math
import operator
import random

import pytest

from gpfree import greedy
from gpfree.checks import _witnesses_revalidated
from gpfree.counting import count_norm_exact, count_upto, greatest_odd_divisor, square_norm_gap
from gpfree.greedy import GreedyReport, build_greedy
from gpfree.quaternion import (
    HurwitzInt,
    ONE,
    _mul,
    enumerate_norm,
    is_gp_triple,
    is_unit_square_representable,
    left_divide,
    units,
)

ZERO = HurwitzInt(0, 0, 0, 0)


def forward_greedy(max_norm, rng=None):
    """Slow oracle: the forward scan on coordinate tuples.

    Per shell it multiplies every kept first term a of each norm-s split
    by each scanned ratio r, looks b = a * r up among all kept tuples and
    lets c = b * r keep the first (a, b, r) it gets, as build_greedy
    does, but with two tuple products per pair and no integer keys or
    storage cutoffs.
    """
    included, excluded, kept = [], [], set()
    kept_by_norm = {}
    ratio_classes = {}
    shell_ends = [(0, 0)]
    for n in range(1, max_norm + 1):
        candidates = enumerate_norm(n)
        if rng is not None:
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
        shell_ends.append((len(included), len(excluded)))
    return GreedyReport(max_norm, tuple(included), tuple(excluded), tuple(shell_ends))


def conj(q):
    """Quaternion conjugate, written here from the coordinates."""
    return HurwitzInt(q.da, -q.db, -q.dc, -q.dd)


def backward_greedy(max_norm, rng=None):
    """Slow oracle: the greedy that searches backwards from each candidate.

    For each candidate c it scans the splits t ascending and the norm-t
    ratios r in enumeration order, recovers a with a * r * r == c by
    exact right division, and stops at the first r whose a and a * r
    are both kept.  Right division is conj(left_divide(conj(r*r), conj(c))).
    """
    included, excluded, kept = [], [], set()
    ratios = {}
    for n in range(1, max_norm + 1):
        candidates = list(enumerate_norm(n))
        if rng is not None:
            rng.shuffle(candidates)
        splits = [t for t in range(2, math.isqrt(n) + 1) if n % (t * t) == 0]
        for t in splits:
            if t not in ratios:
                ratios[t] = enumerate_norm(t)
        for c in candidates:
            witness = None
            for t in splits:
                for r in ratios[t]:
                    q = left_divide(conj(r * r), conj(c))
                    if q is None:
                        continue
                    a = conj(q)
                    b = a * r
                    if a.coords in kept and b.coords in kept:
                        witness = (a, b, r)
                        break
                if witness:
                    break
            if witness is None:
                included.append(c)
                kept.add(c.coords)
            else:
                excluded.append((c, witness))
    return tuple(included), tuple(excluded)


COORDS = operator.attrgetter("da", "db", "dc", "dd")


def report_coords(report):
    """Every field of a report, each element as its coordinate tuple.

    HurwitzInt equality is coordinate equality, so two reports are equal
    exactly when these are; comparing them skips a Python-level __eq__
    per element.  The fields are max_norm, the kept elements, the
    rejected ones, their witnesses (a, b, r) flattened in order, and
    shell_ends.
    """
    excluded = report.excluded
    return (report.max_norm,
            list(map(COORDS, report.included)),
            list(map(COORDS, [c for c, _ in excluded])),
            list(map(COORDS, itertools.chain.from_iterable([w for _, w in excluded]))),
            report.shell_ends)


@functools.cache
def forward_greedy_100(seed):
    """The oracle to norm 100, shuffled by Random(seed) unless seed is None, as report_coords.

    Shell n's shuffle draws the same numbers whatever max_norm is, and
    nothing else in the oracle depends on max_norm, so every smaller run
    with the same seed is a norm prefix of this one.
    """
    return report_coords(forward_greedy(100, None if seed is None else random.Random(seed)))


def _least_prime(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


# The max_norm values up to 100 at which a shell n <= 50 enters or leaves
# the set build_greedy stores: n * p - 1 and n * p for n's least prime p
# (a middle-term shell), 4n - 1 and 4n (a first-term shell).  Also t * t - 1
# and t * t, where shell t starts to give the build its ratios of norm t.
STORAGE_EDGES = sorted({m for n in range(2, 51)
                        for m in (n * _least_prime(n) - 1, n * _least_prime(n), 4 * n - 1, 4 * n)
                        if m <= 100} | {t * t + d for t in range(2, 11) for d in (-1, 0)})


def norm_prefix(coords, max_norm):
    """The part of a report_coords up to max_norm, as a run to max_norm reports it."""
    _, included, excluded, witnesses, shell_ends = coords
    i, e = shell_ends[max_norm]
    return (max_norm, included[:i], excluded[:e], witnesses[:3 * e], shell_ends[:max_norm + 1])


def unit_scan_squares(m):
    """Slow oracle: the 24-unit scan over every norm-m ratio, tabulated.

    Runs r over the norm-m class and u over the 24 units in the order the
    scan tried them and keeps, for each product u * r * r, the first
    (u, r) that gave it: what the scan returns for that element.  Every
    element of norm m * m missing from the table has no representation.
    """
    first = {}
    for r in enumerate_norm(m):
        rr = r * r
        for u in units():
            first.setdefault((u * rr).coords, (u, r))
    return first


class TestBuildGreedy:
    def test_partition_and_counts(self):
        report = build_greedy(20)
        assert isinstance(report, GreedyReport)
        assert len(report.included) == 3072
        assert len(report.excluded) == 888
        assert len(report.included) + len(report.excluded) == count_upto(20)
        seen = {q.coords for q in report.included}
        seen.update(q.coords for q, _ in report.excluded)
        assert len(seen) == count_upto(20)

    def test_units_always_kept(self):
        kept = build_greedy(10).included_coords()
        assert all(u.coords in kept for u in units())

    def test_witnesses_are_progressions(self):
        report = build_greedy(20)
        kept = report.included_coords()
        for q, (a, b, r) in report.excluded:
            assert a.coords in kept and b.coords in kept
            assert b == a * r
            assert q == b * r
            assert is_gp_triple(a, b, q)
            # ratio norm splits the candidate norm as s * t with t > 1
            assert b.norm() * r.norm() == q.norm()
            assert a.norm() * r.norm() == b.norm()
            assert a.norm() * r.norm() ** 2 == q.norm()
            assert b.norm() < q.norm()

    def test_deterministic(self):
        first = build_greedy(30)
        second = build_greedy(30)
        assert first.included == second.included
        assert [q for q, _ in first.excluded] == [q for q, _ in second.excluded]

    def test_order_independent_of_shuffle(self):
        base = build_greedy(30).included_coords()
        for seed in range(3):
            shuffled = build_greedy(30, rng=random.Random(seed))
            assert shuffled.included_coords() == base

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_matches_backward_search(self, seed):
        # Norm 36 scans every split t = 2..6; up to it, no norm-4 ratio is
        # ever the first witness.
        def rng():
            return None if seed is None else random.Random(seed)

        report = build_greedy(36, rng=rng())
        included, excluded = backward_greedy(36, rng=rng())
        assert {r.norm() for _, (_, _, r) in excluded} == {2, 3, 5, 6}
        assert report.included == included
        assert report.excluded == excluded

    # Each run must be the oracle's norm prefix: the key base and the
    # storage cutoffs (see STORAGE_EDGES) move with max_norm, and the
    # decisions and witnesses must not.  So the checks on the oracle's
    # shells below hold for every run.
    @pytest.mark.parametrize("seed", [None, 0, 1])
    @pytest.mark.parametrize("max_norm", sorted({*range(1, 61), *STORAGE_EDGES, 100}))
    def test_matches_forward_scan(self, max_norm, seed):
        rng = None if seed is None else random.Random(seed)
        report = build_greedy(max_norm, rng=rng)
        assert report_coords(report) == norm_prefix(forward_greedy_100(seed), max_norm)

    @pytest.mark.parametrize("seed", [None, 0, 1])
    @pytest.mark.parametrize("n", range(1, 101))
    def test_shell_ends_bound_each_shell(self, n, seed):
        # The norm is the oracle for where each shell starts and ends.  Every
        # run is the oracle's norm prefix (test_matches_forward_scan), so the
        # oracle's shells are checked, each once, with no build of their own.
        _, included, excluded, _, ends = forward_greedy_100(seed)
        assert len(ends) == 101 and ends[0] == (0, 0)
        assert ends[-1] == (len(included), len(excluded))
        (i, e), (j, f) = ends[n - 1], ends[n]
        shell = included[i:j] + excluded[e:f]
        # As many distinct elements of norm n as the class holds.
        assert {sum(x * x for x in q) for q in shell} <= {4 * n}
        assert len(shell) == len(set(shell)) == count_norm_exact(n)

    def test_enumerates_each_norm_once(self, monkeypatch):
        # Ratio classes come from the shells the build enumerates anyway,
        # and perfbench finds each shell by its enumerate_norm(n) call.
        calls = []

        def spy(n):
            calls.append(n)
            return enumerate_norm(n)

        monkeypatch.setattr(greedy, "enumerate_norm", spy)
        build_greedy(100, rng=random.Random(1))
        assert calls == list(range(1, 101))

    def test_nothing_excluded_below_four(self):
        report = build_greedy(3)
        assert report.excluded == ()
        assert len(report.included) == count_upto(3)

    def test_first_exclusions_at_norm_four(self):
        report = build_greedy(4)
        excluded_norms = {q.norm() for q, _ in report.excluded}
        assert excluded_norms == {4}
        # unit * (norm-2 element)^2 products are exactly what gets blocked
        for q, (a, b, r) in report.excluded:
            assert a.norm() == 1 and r.norm() == 2


def key_bases(max_norms):
    """The key bases build_greedy uses for each max_norm given."""
    return sorted({1 << (((64 * m).bit_length() + 1) // 2) for m in max_norms})


class TestKeys:
    """The column keys and orbit entries build_greedy scans with."""

    @pytest.mark.parametrize("base", key_bases(range(1, 401)))
    def test_columns_match_mul(self, base):
        # The oracle: the key of _mul(2e_j, x) for x = r and x = r * r.
        rows = {u: tuple(greedy._key(_mul(u, e), base) for e in greedy._BASIS)
                for u in greedy._BASIS}
        for t in range(1, 31):
            for r in enumerate_norm(t):
                rc = r.coords
                oracle = [greedy._key(_mul(e, x), base)
                          for x in (rc, _mul(rc, rc)) for e in greedy._BASIS]
                assert greedy._columns(r, rows) == (r, rc, *oracle), (base, rc)

    def test_orbit_entries_hold_elements(self):
        base = key_bases([1])[0]
        unit_columns = [tuple(greedy._key(_mul(u.coords, e), base) for e in greedy._BASIS)
                        for u in units()]
        shell = {greedy._key(tuple(2 * x for x in u.coords), base): u for u in units()}
        [(a0, a1, a2, a3, orbit)] = greedy._orbits(shell, unit_columns)
        a = HurwitzInt(a0, a1, a2, a3)
        assert orbit == tuple(u * a for u in units())
        del shell[greedy._key(tuple(2 * x for x in a.coords), base)]
        with pytest.raises(AssertionError, match="not a union of unit orbits"):
            greedy._orbits(shell, unit_columns)


# Every length to 300, and each power of two to 2**13 with its neighbours,
# where the draw width k = (i + 1).bit_length() changes.
SHUFFLE_LENGTHS = sorted({*range(301), *(2**k + d for k in range(1, 14) for d in (-1, 0, 1))})


class TestShuffle:
    """greedy._shuffle against its oracle, random.Random.shuffle."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 501, 2**64 + 7])
    def test_matches_random_shuffle(self, seed):
        for n in SHUFFLE_LENGTHS:
            ours, oracle = random.Random(seed), random.Random(seed)
            x, y = list(range(n)), list(range(n))
            greedy._shuffle(ours, x)
            oracle.shuffle(y)
            assert x == y, n
            assert ours.getstate() == oracle.getstate(), n

    def test_system_random_permutes(self):
        rng = random.SystemRandom()
        for n in (0, 1, 2, 24, 1000, 2**13 + 1):
            x = list(range(n))
            greedy._shuffle(rng, x)
            assert sorted(x) == list(range(n))


class TestWitnessRevalidation:
    """checks._witnesses_revalidated, the witness test of the 343 check."""

    @pytest.fixture(scope="class")
    def report(self):
        return build_greedy(36)

    @staticmethod
    def corrupt(report, entry):
        # Replace the first witness whose candidate has norm 36 by entry.
        i = next(i for i, (c, _) in enumerate(report.excluded) if c.norm() == 36)
        excluded = report.excluded[:i] + (entry,) + report.excluded[i + 1:]
        return GreedyReport(report.max_norm, report.included, excluded, report.shell_ends)

    def test_passes_on_build(self, report):
        assert _witnesses_revalidated(report)

    def test_wrong_b(self, report):
        c, (a, b, r) = next(e for e in report.excluded if e[0].norm() == 36)
        assert not _witnesses_revalidated(self.corrupt(report, (c, (a, -b, r))))

    def test_wrong_a(self, report):
        # -a is kept whenever a is, so only b == a * r can catch it.
        c, (a, b, r) = next(e for e in report.excluded if e[0].norm() == 36)
        assert not _witnesses_revalidated(self.corrupt(report, (c, (-a, b, r))))

    def test_first_term_not_kept(self, report):
        # A true progression a, a * r, a * r * r whose a was excluded.
        a = report.excluded[0][0]
        r = enumerate_norm(2)[0]
        b = a * r
        assert a.coords not in report.included_coords() and a.norm() * 4 <= 36
        assert not _witnesses_revalidated(self.corrupt(report, (b * r, (a, b, r))))

    def test_unit_ratio(self, report):
        # 1, i, -1 is a progression of kept units with ratio i.
        i = HurwitzInt.from_integers(0, 1, 0, 0)
        assert {ONE, i, -ONE} <= set(report.included)
        assert not _witnesses_revalidated(self.corrupt(report, (-ONE, (ONE, i, i))))


class TestLeftUnitInvariance:
    """The property build_greedy's orbit scan rests on, checked on its output.

    Closure under the two generators i and (1+i+j+k)/2 of the unit group
    gives closure under every unit, as each unit is a product of them;
    test_generators_reach_every_unit checks that.
    """

    GENERATORS = ((0, 2, 0, 0), (1, 1, 1, 1))

    def test_generators_reach_every_unit(self):
        reached = {ONE.coords}
        frontier = [ONE.coords]
        while frontier:
            x = frontier.pop()
            for g in self.GENERATORS:
                y = _mul(g, x)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == {u.coords for u in units()}

    @pytest.mark.parametrize("seed", [None, 5])
    def test_kept_set_and_witnesses_are_unit_invariant(self, seed):
        report = build_greedy(100, rng=None if seed is None else random.Random(seed))
        kept = report.included_coords()
        witnesses = {c.coords: tuple(q.coords for q in w) for c, w in report.excluded}
        for c, (a, b, r) in witnesses.items():
            assert _mul(a, r) == b and _mul(b, r) == c
        for g in self.GENERATORS:
            assert all(_mul(g, x) in kept for x in kept)
            for c, (a, b, r) in witnesses.items():
                assert witnesses[_mul(g, c)] == (_mul(g, a), _mul(g, b), r)


class TestUnitSquare:
    def test_two_i_has_representation(self):
        two_i = HurwitzInt.from_integers(0, 2, 0, 0)
        u, r = is_unit_square_representable(two_i)
        assert u.is_unit()
        assert r.norm() ** 2 == two_i.norm()
        assert u * (r * r) == two_i

    def test_seven_times_basis_has_none(self):
        for coords in ((7, 0, 0, 0), (0, 7, 0, 0)):
            q = HurwitzInt.from_integers(*coords)
            assert is_unit_square_representable(q) is None
            assert is_unit_square_representable(-q) is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            is_unit_square_representable(ZERO)
        with pytest.raises(ValueError):
            is_unit_square_representable(HurwitzInt.from_integers(1, 1, 0, 0))

    def test_every_square_is_representable(self):
        q = HurwitzInt.from_integers(1, 2, 0, 2)
        u, r = is_unit_square_representable(q * q)
        assert u * (r * r) == q * q


    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_unit_scan(self, m):
        oracle = unit_scan_squares(m)
        for q in enumerate_norm(m * m):
            assert is_unit_square_representable(q) == oracle.get(q.coords)

    def test_matches_unit_scan_on_checked_elements(self):
        # The seven-axis elements and 2i of the unit-square check.
        sevens, twos = unit_scan_squares(7), unit_scan_squares(2)
        for coords in ((7, 0, 0, 0), (0, 7, 0, 0), (0, 0, 7, 0), (0, 0, 0, 7)):
            for q in (HurwitzInt.from_integers(*coords), -HurwitzInt.from_integers(*coords)):
                assert is_unit_square_representable(q) is None
                assert q.coords not in sevens
        two_i = HurwitzInt.from_integers(0, 2, 0, 0)
        assert is_unit_square_representable(two_i) == twos[two_i.coords]


class TestSquareNormGap:
    def test_frozen_triples(self):
        assert square_norm_gap(1) == (576, 24, False)
        assert square_norm_gap(23) == (13824, 13272, False)
        assert square_norm_gap(25) == (17856, 18744, True)
        # powers of two never change the odd part
        assert square_norm_gap(46) == square_norm_gap(23)
        assert square_norm_gap(50) == square_norm_gap(25)

    def test_components_match_counts(self):
        for n in (2, 9, 30, 47):
            lhs, rhs, holds = square_norm_gap(n)
            assert lhs == 24 * count_norm_exact(n)
            assert rhs == count_norm_exact(n * n)
            assert holds == (lhs < rhs)

    def test_threshold_is_odd_part_23(self):
        for n in range(1, 201):
            _, _, holds = square_norm_gap(n)
            assert holds == (greatest_odd_divisor(n) > 23)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            square_norm_gap(0)


def test_greatest_odd_divisor():
    assert greatest_odd_divisor(1) == 1
    assert greatest_odd_divisor(96) == 3
    assert greatest_odd_divisor(23 * 8) == 23
    with pytest.raises(ValueError):
        greatest_odd_divisor(0)

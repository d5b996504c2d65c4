"""Spans and counters for the traced run, recorded from outside the library.

The tracer wraps every public function of the six layers (quaternion,
counting, density, greedy, freegroup, cli) and ``NormCount.build`` in a
span, replacing each reference to the function in every loaded gpfree
module, so calls between modules are seen too.  A span row is
``[name, start_ns, end_ns, parent_index, note]``; rows stay in memory
and are written out when the run ends.  The hot ``HurwitzInt`` methods
``__mul__`` and ``__init__`` are counted, never spanned, and the few
public functions in HOT are left unwrapped.  Two private helpers are
counted when they exist, only to cross-check the computed work counts
against what the run did; a cross-check is skipped, not failed, when
its helper is gone.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from functools import lru_cache

import gpfree.density as density
import gpfree.quaternion as quaternion

LAYERS = ("quaternion", "counting", "density", "greedy", "freegroup", "cli")

# What a span keeps of its call, for the per-layer metrics.
NOTES = {
    "quaternion.enumerate_norm": lambda args, result: {"n": args[0], "size": len(result)},
    "quaternion.left_divide": lambda args, result: {"hit": result is not None},
    "greedy.build_greedy": lambda args, result: {"max_norm": args[0], "report": result},
    "density.rankin_density": lambda args, result: {"max_prime": args[0]},
    "density.verify_annuli_gp_free": lambda args, result: {"max_norm": args[0]},
}

# Public functions called per element inside a layer's own loops: a span
# each would cost more than the work it times, so they are left unwrapped.
HOT = {"freegroup.word_mul", "freegroup.word_at", "freegroup.index_of",
       "freegroup.alt_order_value", "density.rankin_apfree_contains"}

# (module, private helper, counter, amount added per call, metric it
# cross-checks); counted if present.
PRIVATE_COUNTS = (
    ("greedy", "_right_quotient", "greedy.right_quotient_calls", None, "greedy.ratio_tests"),
    ("density", "_primes_upto", "density.odd_primes_sieved", lambda primes: len(primes) - 1,
     "density.primes_folded"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] | None = None

    def span(self, name, fn, note=None):
        """fn wrapped so that each call records one span row."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            row = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if note is not None:
                row[4] = note(args, result)
            return result

        return wrapper

    def counted(self, key, fn, amount=None):
        counts = self.counts
        if amount is None:
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
        else:
            def wrapper(*args):
                result = fn(*args)
                counts[key] += amount(result)
                return result
        return wrapper

    def _build_patches(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "gpfree" or name.startswith("gpfree.")]
        patches = []

        def everywhere(fn, wrapper):
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is fn:
                        patches.append((mod, attr, fn, wrapper))

        for layer in LAYERS:
            mod = sys.modules[f"gpfree.{layer}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                key = f"{layer}.{name}"
                if inspect.isfunction(fn) and key not in HOT:
                    everywhere(fn, self.span(key, fn, NOTES.get(key)))
        hurwitz = quaternion.HurwitzInt
        for attr, key in (("__mul__", "quaternion.mul_calls"), ("__init__", "quaternion.objects_created")):
            fn = hurwitz.__dict__[attr]
            patches.append((hurwitz, attr, fn, self.counted(key, fn)))
        table = sys.modules["gpfree.counting"].NormCount
        build = table.__dict__["build"]
        patches.append((table, "build", build,
                        classmethod(self.span("counting.NormCount.build", build.__func__))))
        for layer, name, key, amount, _ in PRIVATE_COUNTS:
            fn = getattr(sys.modules[f"gpfree.{layer}"], name, None)
            if fn is not None:
                everywhere(fn, self.counted(key, fn, amount))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._build_patches()
        for obj, attr, _, wrapper in self._patches:
            setattr(obj, attr, wrapper)

    def uninstall(self):
        for obj, attr, original, _ in reversed(self._patches or ()):
            setattr(obj, attr, original)

    def rows(self):
        """Span rows without their notes' result objects, for writing out."""
        for name, start, end, parent, note in self.spans:
            yield name, start, end, parent


def layer_metrics(spans: list[list], start: int, counts: Counter, bytes_out: int):
    """Per-layer metrics of one pass: span rows spans[start:] and its counts.

    Returns (metrics, crosschecks).  Computed work counts come from the
    inputs alone; each cross-check compares one with the count the run
    made, where the run had a place to count it, and says whether they
    agree.
    """
    rows = range(start, len(spans))
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i in rows:
        by_name[spans[i][0]].append(i)
        children[spans[i][3]].append(i)

    def dur(i):
        return (spans[i][2] - spans[i][1]) / 1e9

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def self_time(name):
        return sum(dur(i) - sum(dur(j) for j in children[i]) for i in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    enum = by_name["quaternion.enumerate_norm"]
    divides = by_name["quaternion.left_divide"]

    shells = []
    candidates = kept = excluded = ratio_tests = 0
    crosschecks = []
    for g in by_name["greedy.build_greedy"]:
        note = spans[g][4]
        report = note.pop("report")
        kept += len(report.included)
        excluded += len(report.excluded)
        ratio_tests += ratio_tests_full(note["max_norm"])
        # A candidate shell starts at the enumerate_norm(n) call for the
        # next norm n; ratio classes are enumerated at smaller norms.
        starts = []
        for j in children[g]:
            if spans[j][0] == "quaternion.enumerate_norm" and spans[j][4]["n"] == len(starts) + 1:
                starts.append(j)
                candidates += spans[j][4]["size"]
        ends = [spans[j][1] for j in starts[1:]] + [spans[g][2]]
        for n, (j, end) in enumerate(zip(starts, ends), 1):
            shells.append((n, (end - spans[j][1]) / 1e9))
        if "greedy.right_quotient_calls" in counts:
            until_witness = ratio_tests_until_witness(report)
            traced = counts["greedy.right_quotient_calls"]
            crosschecks.append({
                "metric": "greedy.ratio_tests",
                "computed": ratio_tests_full(note["max_norm"]),
                "computed_until_witness": until_witness,
                "traced": traced,
                "agrees": traced == until_witness,
            })
    shell_times = [s for _, s in shells]
    nonsquarefree = sum(s for n, s in shells if not squarefree(n))

    primes_folded = sum(odd_primes_upto(spans[i][4]["max_prime"])
                        for i in by_name["density.rankin_density"])
    if by_name["density.rankin_density"] and "density.odd_primes_sieved" in counts:
        crosschecks.append({
            "metric": "density.primes_folded",
            "computed": primes_folded,
            "traced": counts["density.odd_primes_sieved"],
            "agrees": primes_folded == counts["density.odd_primes_sieved"],
        })

    metrics = {
        "quaternion.mul_calls": counts["quaternion.mul_calls"],
        "quaternion.objects_created": counts["quaternion.objects_created"],
        "quaternion.enumerate_calls": len(enum),
        "quaternion.enumerate_s": total("quaternion.enumerate_norm"),
        "quaternion.elements_enumerated": sum(spans[i][4]["size"] for i in enum),
        "quaternion.left_divide_calls": len(divides),
        "quaternion.left_divide_hit_ratio": ratio(sum(spans[i][4]["hit"] for i in divides), len(divides)),
        "quaternion.factor_s": total("quaternion.factor_modelled"),
        "greedy.self_s": self_time("greedy.build_greedy"),
        "greedy.shell_s_p50": statistics.median(shell_times) if shell_times else 0.0,
        "greedy.shell_s_max": max(shell_times, default=0.0),
        "greedy.nonsquarefree_time_share": ratio(nonsquarefree, sum(shell_times)),
        "greedy.candidates": candidates,
        "greedy.excluded": excluded,
        "greedy.kept_ratio": ratio(kept, candidates),
        "greedy.ratio_tests": ratio_tests,
        "greedy.mul_per_candidate": ratio(counts["quaternion.mul_calls"], candidates),
        "density.rankin_s": total("density.rankin_density"),
        "density.primes_folded": primes_folded,
        "density.annuli_s": total("density.verify_annuli_gp_free"),
        "density.annuli_triples_scanned": sum(annuli_triples(spans[i][4]["max_norm"])
                                              for i in by_name["density.verify_annuli_gp_free"]),
        "density.contains_calls": len(by_name["density.rankin_gpfree_contains"]),
        "density.contains_s": total("density.rankin_gpfree_contains"),
        "counting.table_s": total("counting.NormCount.build"),
        "counting.count_upto_s": total("counting.count_upto"),
        "counting.divisor_sum_s": total("counting.odd_divisor_sum"),
        "freegroup.ints_greedy_s": total("freegroup.greedy_set_bruteforce"),
        "freegroup.words_greedy_s": total("freegroup.greedy_words_bruteforce"),
        "freegroup.witness_calls": len(by_name["freegroup.witness_progression"]),
        "freegroup.witness_s": total("freegroup.witness_progression"),
        "cli.overhead_s": self_time("cli.run"),
        "cli.bytes_out": bytes_out,
    }
    return metrics, crosschecks


# Work counts computed from the inputs alone, with the benchmark's own
# arithmetic rather than the library's.

@lru_cache(maxsize=None)
def class_size(n: int) -> int:
    """Number of Hurwitz integers of norm n: 24 times the odd divisor sum."""
    return 24 * sum(d for d in range(1, n + 1, 2) if n % d == 0)


def squarefree(n: int) -> bool:
    return all(n % (t * t) for t in range(2, math.isqrt(n) + 1))


def _square_splits(n: int) -> list[int]:
    return [t for t in range(2, math.isqrt(n) + 1) if n % (t * t) == 0]


@lru_cache(maxsize=None)
def ratio_tests_full(max_norm: int) -> int:
    """Candidate x ratio pairs the greedy rule admits up to max_norm.

    A candidate of norm n is tested against every ratio of norm t with
    t * t dividing n, when no witness stops the scan early.
    """
    return sum(class_size(n) * sum(class_size(t) for t in _square_splits(n))
               for n in range(1, max_norm + 1))


def ratio_tests_until_witness(report) -> int:
    """ratio_tests_full less the tests skipped after each exclusion's witness.

    The builder scans ratio classes by ascending norm t, each in
    enumeration order, and stops at the witness ratio it reports.
    """
    positions = {}
    skipped = 0
    for c, (_, _, r) in report.excluded:
        t = r.norm()
        if t not in positions:
            positions[t] = {q.coords: i for i, q in enumerate(quaternion.enumerate_norm(t))}
        splits = _square_splits(c.norm())
        scanned = sum(class_size(u) for u in splits if u < t) + positions[t][r.coords] + 1
        skipped += sum(class_size(u) for u in splits) - scanned
    return ratio_tests_full(report.max_norm) - skipped


@lru_cache(maxsize=None)
def odd_primes_upto(limit: int) -> int:
    """Odd primes up to limit: the Euler factors rankin_density folds in."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return sum(sieve) - 1


@lru_cache(maxsize=None)
def annuli_triples(max_norm: int) -> int:
    """(n, k) pairs the annuli scan visits: kept n, k >= 2, n * k * k <= max_norm.

    Exact when the scan finds no progression, which is its verdict on
    the default annuli.
    """
    spec = density.DEFAULT_ANNULI
    return sum(math.isqrt(max_norm // n) - 1
               for n in range(1, max_norm + 1) if spec.contains(n, max_norm))

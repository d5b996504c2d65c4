"""Inputs, operations and output checks of the three benchmark workloads.

A workload is built from a size ("full" for measurement, "tiny" for the
smoke test), the run's seed and the recorded reference outputs.  It
offers one warm-up call and, pass after pass, a list of operations.
Each operation is one top-level library call, made through the module
attribute at call time so that the traced run's wrappers see it, plus a
check of its result against the reference.  Checks run outside the
timed part, and hold little memory beside the result, so that the
worker's peak RSS is the library's.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import ValuesView
from itertools import islice

import gpfree.cli as cli
import gpfree.counting as counting
import gpfree.density as density
import gpfree.freegroup as freegroup
import gpfree.greedy as greedy
import gpfree.quaternion as quaternion

SIZES = {
    "full": {
        "greedy_max_norm": 100,
        "witness_sample": 256,
        "rankin": (10**6, 40),
        "annuli_max_norms": (48 * 48, 10**5),
        "table_max_norm": 2 * 10**5,
        "count_upto": 10**6,
        "ints_max_abs": 3**7,
        "words_max_len": 2 * 3**5,
        "max_class_norm": 2000,
        "max_pair_norm": 200,
        "max_int": 10**9,
        "max_witness": 3**30,
        "max_cli_enumerate": 50,
        "mix": {
            "enumerate_norm": 15,
            "factor_modelled": 30,
            "cli": 45,
            "left_divide": 60,
            "is_gp_triple": 60,
            "count_norm_exact": 30,
            "odd_divisor_sum": 30,
            "rankin_gpfree_contains": 30,
            "witness_progression": 120,
        },
    },
    "tiny": {
        "greedy_max_norm": 12,
        "witness_sample": 8,
        "rankin": (2000, 8),
        "annuli_max_norms": (48, 48 * 48),
        "table_max_norm": 1000,
        "count_upto": 10**4,
        "ints_max_abs": 3**4,
        "words_max_len": 2 * 3**3,
        "max_class_norm": 60,
        "max_pair_norm": 20,
        "max_int": 10**6,
        "max_witness": 3**10,
        "max_cli_enumerate": 5,
        "mix": dict.fromkeys(
            ["enumerate_norm", "factor_modelled", "cli", "left_divide", "is_gp_triple",
             "count_norm_exact", "odd_divisor_sum", "rankin_gpfree_contains",
             "witness_progression"], 2),
    },
}

# Queries per pass come from a fixed pool, so that the reference outputs
# can be recorded once.  The kinds that build large norm classes or go
# through the CLI run their whole pool every pass: their few slow calls
# make up most of a pass's time, and a seed-drawn sample of them would
# move wall_s from seed to seed.  The seed draws the other kinds from a
# pool POOL_FACTOR passes deep, and orders every pass.  With these counts
# op_p50_ms falls among the witness constructions and trial divisions,
# and op_p90_ms among the CLI requests and the factorizations.
FIXED_KINDS = ("enumerate_norm", "factor_modelled", "cli")
POOL_SEED = 18070605
POOL_FACTOR = 4


DIGEST_CHUNK = 1024


SEQUENCES = (list, tuple, ValuesView)


def digest(value) -> str:
    """Short stable digest of a result: sha256 of repr of its canonical plain form."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:16]


def _feed(h, value) -> None:
    """Feed repr(_canon(value)) to h, a sequence DIGEST_CHUNK items at a time.

    A dict's values read as a list.  No canonical copy of a large result
    is built whole.
    """
    if not isinstance(value, SEQUENCES):
        h.update(repr(_canon(value)).encode())
        return
    h.update(b"[")
    items = iter(value)
    sep = b""
    while chunk := list(islice(items, DIGEST_CHUNK)):
        if any(isinstance(v, SEQUENCES) for v in chunk):
            for v in chunk:
                h.update(sep)
                _feed(h, v)
                sep = b", "
        else:
            h.update(sep + repr(_canon(chunk))[1:-1].encode())
            sep = b", "
    h.update(b"]")


def kept_digest(report) -> str:
    """Digest of the set of kept coordinates: the sum of each one's sha256, mod 2**64.

    It does not depend on the order, so the set needs neither sorting
    nor copying.
    """
    total = 0
    for q in report.included:
        total += int.from_bytes(hashlib.sha256(repr(q.coords).encode()).digest()[:8], "big")
    return f"{total % 2**64:016x}"


def _canon(value):
    if isinstance(value, quaternion.HurwitzInt):
        return value.coords
    if isinstance(value, quaternion.ModelledFactorization):
        return [list(value.prime_norms), [f.coords for f in value.factors]]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _digest_mismatch(expected, canon=None):
    def check(result):
        got = digest(result if canon is None else canon(result))
        return None if got == expected else f"digest {got} != reference {expected}"
    return check


def random_element(rng: random.Random, max_norm: int, min_norm: int = 1):
    """A Hurwitz integer drawn uniformly from the norm ball [min_norm, max_norm]."""
    half = math.isqrt(max_norm) + 1
    while True:
        parity = rng.randrange(2)
        coords = [2 * rng.randint(-half, half) + parity for _ in range(4)]
        n = sum(c * c for c in coords) // 4
        if min_norm <= n <= max_norm:
            return quaternion.HurwitzInt(*coords)


def prime_model(n: int) -> tuple[int, ...]:
    """Prime factors of n with multiplicity, ascending."""
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def query_pool(size: dict) -> dict[str, list[tuple]]:
    """The fixed query inputs of every kind, in pool order."""
    rng = random.Random(POOL_SEED)
    cnorm, pnorm = size["max_class_norm"], size["max_pair_norm"]
    big, wit = size["max_int"], size["max_witness"]
    pool = {}
    for kind, count in size["mix"].items():
        items = []
        for _ in range(count if kind in FIXED_KINDS else POOL_FACTOR * count):
            if kind == "enumerate_norm":
                items.append((rng.randint(1, cnorm),))
            elif kind == "factor_modelled":
                q = random_element(rng, cnorm, 2)
                items.append((q, prime_model(q.norm())))
            elif kind == "left_divide":
                a = random_element(rng, pnorm)
                if rng.random() < 0.5:
                    b = a * random_element(rng, pnorm)
                else:
                    b = random_element(rng, cnorm)
                items.append((a, b))
            elif kind == "is_gp_triple":
                a = random_element(rng, pnorm)
                roll = rng.random()
                if roll < 0.2:
                    r = rng.choice(quaternion.units())
                else:
                    r = random_element(rng, pnorm, 2)
                b = a * r
                c = b * (random_element(rng, pnorm, 2) if roll >= 0.6 else r)
                items.append((a, b, c))
            elif kind in ("count_norm_exact", "odd_divisor_sum", "rankin_gpfree_contains"):
                items.append((rng.randint(1, big),))
            elif kind == "witness_progression":
                items.append((rng.randint(-wit, wit),))
            else:
                sub = rng.randrange(3)
                if sub == 0:
                    items.append(("count", "--norm", str(rng.randint(1, big))))
                elif sub == 1:
                    items.append(("freegroup", "witness", "--n", str(rng.randint(-wit, wit))))
                else:
                    items.append(("enumerate", "--norm", str(rng.randint(1, size["max_cli_enumerate"]))))
        pool[kind] = items
    return pool


QUERY_FUNCS = {
    "enumerate_norm": (quaternion, "enumerate_norm"),
    "factor_modelled": (quaternion, "factor_modelled"),
    "left_divide": (quaternion, "left_divide"),
    "is_gp_triple": (quaternion, "is_gp_triple"),
    "count_norm_exact": (counting, "count_norm_exact"),
    "odd_divisor_sum": (counting, "odd_divisor_sum"),
    "rankin_gpfree_contains": (density, "rankin_gpfree_contains"),
    "witness_progression": (freegroup, "witness_progression"),
}


def run_query(kind: str, args: tuple, out_path=None):
    """Issue one query; CLI queries write to out_path and return the exit code."""
    if kind == "cli":
        return cli.run(["--output", str(out_path), *args])
    module, name = QUERY_FUNCS[kind]
    return getattr(module, name)(*args)


def cli_result(code: int, out_path) -> tuple[int, bytes]:
    return (code, out_path.read_bytes())


class Queries:
    """A seeded mix of single requests drawn from the fixed query pool."""

    name = "queries"

    def __init__(self, size: str, seed: int, reference: dict, scratch):
        self.size = SIZES[size]
        self.reference = reference["queries"][size]
        self.pool = query_pool(self.size)
        self.rng = random.Random(seed)
        self.out_path = scratch / f"cli-{seed}.out"
        self.out_path.unlink(missing_ok=True)
        self.bytes_out = 0

    def warm_up(self):
        # Fills the two-square tables up to the largest norm any query uses.
        quaternion.enumerate_norm(self.size["max_class_norm"])

    def plan_pass(self):
        self.bytes_out = 0
        ops = []
        for kind, count in self.size["mix"].items():
            for i in self.rng.sample(range(len(self.pool[kind])), count):
                ops.append(self._op(kind, i))
        self.rng.shuffle(ops)
        return ops

    def _op(self, kind, i):
        args = self.pool[kind][i]
        expected = self.reference[kind][i]
        if kind != "cli":
            return (kind, lambda: run_query(kind, args), _digest_mismatch(expected))
        out = self.out_path

        def call():
            return run_query(kind, args, out)

        def check(code):
            result = cli_result(code, out)
            self.bytes_out += len(result[1])
            out.unlink()
            return _digest_mismatch(expected)(result)

        return (kind, call, check)


class GreedyShells:
    """The greedy progression-free quaternion set, one build per pass."""

    name = "greedy-shells"

    def __init__(self, size: str, seed: int, reference: dict, scratch):
        self.size = SIZES[size]
        self.reference = reference["greedy-shells"][size]
        self.rng = random.Random(seed)
        self.bytes_out = 0

    def warm_up(self):
        quaternion.enumerate_norm(self.size["greedy_max_norm"])

    def plan_pass(self):
        max_norm = self.size["greedy_max_norm"]
        shuffle = random.Random(self.rng.getrandbits(64))
        sample_rng = random.Random(self.rng.getrandbits(64))
        return [
            (
                "build_greedy",
                lambda: greedy.build_greedy(max_norm, rng=shuffle),
                lambda report: self._check(report, sample_rng),
            )
        ]

    def _check(self, report, rng):
        ref = self.reference
        got = (kept_digest(report), len(report.included), len(report.excluded))
        want = (ref["kept_digest"], ref["included"], ref["excluded"])
        if got != want:
            return f"kept digest/included/excluded {got} != reference {want}"
        k = min(self.size["witness_sample"], len(report.excluded))
        sample = rng.sample(report.excluded, k)
        # One scan of the kept elements finds which sampled a and b are kept.
        wanted = {q.coords for _, (a, b, _) in sample for q in (a, b)}
        kept = set()
        for q in report.included:
            coords = q.coords
            if coords in wanted:
                kept.add(coords)
        for c, (a, b, r) in sample:
            if not (a * r == b and b * r == c and r.norm() >= 2
                    and a.coords in kept and b.coords in kept):
                return f"witness ({a}, {b}, {r}) does not exclude {c}"
        return None


class EulerTables:
    """Euler product, annuli scan, count tables and the brute-force greedies."""

    name = "euler-tables"

    def __init__(self, size: str, seed: int, reference: dict, scratch):
        self.size = SIZES[size]
        self.reference = reference["euler-tables"][size]
        self.rng = random.Random(seed)
        self.bytes_out = 0

    def warm_up(self):
        density.rankin_density(97, self.size["rankin"][1])

    def plan_pass(self):
        # The seed orders the calls; their inputs are the paper's parameters.
        calls = list(euler_calls(self.size).items())
        self.rng.shuffle(calls)
        return [
            (name, call, _digest_mismatch(self.reference[name], canon))
            for name, (call, canon) in calls
        ]


def euler_calls(s: dict) -> dict:
    """Each call of the euler-tables workload with the plain form its output is checked in."""
    # The annuli are checked on the published range 48 * 48 and well past it.
    low, high = s["annuli_max_norms"]
    return {
        "rankin_density": (
            lambda: density.rankin_density(*s["rankin"]),
            lambda est: str(est.value),
        ),
        "verify_annuli_gp_free": (lambda: density.verify_annuli_gp_free(low), None),
        "verify_annuli_gp_free.far": (lambda: density.verify_annuli_gp_free(high), None),
        "NormCount.build": (
            lambda: counting.NormCount.build(s["table_max_norm"]),
            lambda t: [t.per_norm.values(), t.cumulative.values()],
        ),
        "count_upto": (lambda: counting.count_upto(s["count_upto"]), None),
        "greedy_set_bruteforce": (
            lambda: freegroup.greedy_set_bruteforce(s["ints_max_abs"]),
            sorted,
        ),
        "greedy_words_bruteforce": (
            lambda: freegroup.greedy_words_bruteforce(s["words_max_len"]),
            lambda words: [str(w) for w in sorted(words, key=freegroup.index_of)],
        ),
    }


WORKLOADS = {w.name: w for w in (GreedyShells, EulerTables, Queries)}

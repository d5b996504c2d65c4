"""Check factor_modelled against a norm-class scan, and hash its factors.

    PYTHONPATH=src python scripts/compare_factor.py

gpfree.quaternion.factor_modelled takes each norm-p factor as the least
right associate of a generator of the right ideal cH + pH, found by the
Euclidean algorithm.  The script draws a seeded corpus of (q, model)
pairs (see corpus), non-primitive elements among them, and factors each
pair twice: by factor_modelled and by a scan of every norm-p class in
lexicographic order that takes the first left divisor.  It prints how
many factorizations differ and one sha256 over factor_modelled's
factors, so trees that factor alike print the same hash.  Exits 1 if
any factorization differs.  Run it under every interpreter the package
supports.
"""

from __future__ import annotations

import hashlib
import math
import platform
import random
import sys
from collections.abc import Iterator

from gpfree.counting import factorize
from gpfree.quaternion import HurwitzInt, _left_quotient, _norm_coords, factor_modelled

SEED = 2404
SIZE = 20_000


def element(rng: random.Random, max_norm: int) -> HurwitzInt:
    """A random element of norm 1 to max_norm, with integer or half-odd coordinates."""
    half = math.isqrt(max_norm)
    while True:
        parity = rng.randrange(2)
        q = HurwitzInt(*(2 * rng.randint(-half, half) + parity for _ in range(4)))
        if 1 <= q.norm() <= max_norm:
            return q


def corpus(seed: int, size: int) -> Iterator[tuple[HurwitzInt, list[int]]]:
    """size pairs (q, model) drawn from seed, each model a shuffled prime factorization of N(q).

    Three in five q are random elements of norm 2 to 2000, the range of
    the queries benchmark.  One in five is non-primitive, m * y for a
    rational integer m from 2 to 15, so that some cofactor lies in pH.
    One in ten is a power of 1 + i times y, as 2 is the one ramified
    prime, and one in ten a product of two to four random elements of
    norm up to 60.
    """
    rng = random.Random(seed)
    for _ in range(size):
        roll = rng.random()
        if roll < 0.6:
            q = element(rng, 2000)
            while q.norm() < 2:
                q = element(rng, 2000)
        elif roll < 0.8:
            q = HurwitzInt(2 * rng.randint(2, 15), 0, 0, 0) * element(rng, 150)
        elif roll < 0.9:
            q = element(rng, 60)
            for _ in range(rng.randint(1, 8)):
                q = HurwitzInt(2, 2, 0, 0) * q
        else:
            q = element(rng, 60)
            for _ in range(rng.randint(1, 3)):
                q = q * element(rng, 60)
            while q.norm() < 2:
                q = q * element(rng, 60)
        model = [p for p, e in factorize(q.norm()) for _ in range(e)]
        rng.shuffle(model)
        yield q, model


def class_scan_factors(q: HurwitzInt, model: list[int]) -> tuple[tuple[int, int, int, int], ...]:
    """The factors as the first left divisor in each norm-p class, the leftover unit absorbed last."""
    factors, rest = [], q.coords
    for p in model:
        for cand in _norm_coords(p):
            quot = _left_quotient(cand, rest)
            if quot is not None:
                factors.append(cand)
                rest = quot
                break
        else:
            raise RuntimeError(f"no norm-{p} left factor of {rest}")
    factors[-1] = (HurwitzInt(*factors[-1]) * HurwitzInt(*rest)).coords
    return tuple(factors)


def main() -> int:
    digest = hashlib.sha256()
    pairs = mismatched = 0
    for q, model in corpus(SEED, SIZE):
        pairs += 1
        got = tuple(f.coords for f in factor_modelled(q, model).factors)
        digest.update(f"{q.coords} {model} {got}\n".encode())
        expected = class_scan_factors(q, model)
        if got != expected:
            mismatched += 1
            print(f"MISMATCH {q.coords} {model}: {got} against {expected}")
    print(f"# {platform.python_implementation()} {platform.python_version()}")
    print(f"factorizations: {pairs}, {mismatched} differ from the class scan")
    print(f"factors: {digest.hexdigest()}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

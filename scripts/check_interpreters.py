"""Run the package's stdlib-only differential checks under every python3.1x on PATH.

    python scripts/check_interpreters.py

For each of python3.10, python3.11, ... python3.19 that PATH holds, the
script runs itself with the argument --here under that interpreter, with
this tree's src/ on PYTHONPATH, and relays the lines it prints.  Under
--here it runs these checks in its own process, one line each:

- json-writer: each command of JSON_COMMANDS is run through its handler,
  every lazy list read out, and encoded by the CLI's writer,
  gpfree.cli._json_chunks, and by json.dumps(value, sort_keys=True,
  indent=2).  It fails if any pair of texts differs, and hashes the
  writer's texts.
- factor: a seeded corpus of (q, model) pairs (see factor_corpus) is
  factored by gpfree.quaternion.factor_modelled, which takes each norm-p
  factor by the Euclidean algorithm, and by a scan of every norm-p class
  in lexicographic order that takes the first left divisor.  It fails if
  any factorization differs, and hashes factor_modelled's factors.
- factorize: a seeded corpus of products of known primes (see
  factorize_corpus), each factorization known by construction, is
  factored by gpfree.counting.factorize, whose trial division, Miller-Rabin
  test and Pollard's rho splitter all take part.  It fails if any
  factorization differs, and hashes the (n, pairs) of the corpus.
- cli-parse: a seeded corpus of argvs, well-formed and not (see
  argv_corpus), goes to argparse and to the CLI's own parse of
  well-formed argvs, gpfree.cli._direct_parse.  It fails if an argv the
  direct parse accepts gets another Namespace than parse_args gives,
  and hashes what parse_args makes of the whole corpus (each Namespace,
  or each exit code with its stdout and stderr).
- help: one line per --help text of HELP_ARGVS, formatted at 80
  columns, with its sha256.  tests/test_cli.py pins these texts under
  CPython 3.11.7 only.
- greedy: gpfree.greedy._shuffle and random.Random.shuffle shuffle
  seeded lists of every length up to SHUFFLE_MAX_LEN.  It fails if a
  permutation or the generator's final state differs, and hashes
  build_greedy(GREEDY_MAX_NORM) with rng=random.Random(s) for each seed
  s of GREEDY_SEEDS: every kept element, every excluded one with its
  witness, and the shell ends.

Each line gives the interpreter's version, the check, "ok" or "FAIL",
and what was counted and hashed; trees that behave alike print the same
hashes under one interpreter.  An interpreter that does not start, or a
check that raises, prints a FAIL line.  A pyenv shim starts only the
versions that pyenv selects: list the others in PYENV_VERSION, as in
PYENV_VERSION=3.10.13:3.11.7:3.12.1:3.13.0.  Exits 1 if any line says
FAIL.  Nothing here needs pytest, which does not import under every
interpreter the package claims.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
INTERPRETERS = [f"python3.{minor}" for minor in range(10, 20)]
TIMEOUT_S = 900

JSON_COMMANDS = [
    "count --norm 7", "count --upto 1000", "count --table 50", "count --table 3000",
    *(f"enumerate --norm {n}" for n in (1, 37, 60, 2000)),
    "bounds", "rankin --max-prime 100 --max-exponent 12", "annuli-check",
    *(f"greedy-hur --max-norm {n}" for n in (1, 30, 60, 100)),
    "freegroup greedy --max-len 54", "freegroup density --n 5",
    "freegroup witness --n 95", "freegroup witness --n -6",
]

FACTOR_SEED = 2404
FACTOR_SIZE = 20_000

# Primes around 2**16 and 2**32, each checked by trial division when
# chosen, and the Mersenne prime 2**61 - 1.
LARGE_PRIMES = (65519, 65521, 65537, 65539, 65543,
                4294967279, 4294967291, 4294967311, 4294967357, 2**61 - 1)
FACTORIZE_SEED = 2929
FACTORIZE_SIZE = 600
FACTORIZE_BITS = 150

# Each command's words and options, written out apart from the parser's own grammar.
ARGV_COMMANDS = [
    (["count"], ["--norm", "--upto", "--table", "--emit"]),
    (["enumerate"], ["--norm", "--emit"]),
    (["bounds"], ["--terms"]),
    (["rankin"], ["--max-prime", "--max-exponent"]),
    (["annuli-check"], ["--max-norm"]),
    (["greedy-hur"], ["--max-norm", "--emit"]),
    (["freegroup", "greedy"], ["--max-len"]),
    (["freegroup", "density"], ["--n"]),
    (["freegroup", "witness"], ["--n"]),
    (["verify-all"], ["--quick"]),
]
NUMBERS = ["5", "37", "2000", "123456789012345", "-15", "-6", "0", "-0", "007", "1_000", " 12 "]
ODD_VALUES = [
    "x", "-x", "", "-", "--", "-1.5", "1.5", "1e3", "0x10", "+7", "١٢", "-١٢", "１２", "²",
    "-h", "--norm", "count", "a b", "-1 ", "-" + "9" * 5000,
]
EMITS = ["json", "csv", "text", "xml", "JSON", "cs"]
OUTPUTS = ["out.json", "-7", "--help", "", "count", "-"]
STRAYS = ["-h", "--help", "--", "--bogus", "--output", "--quick", "extra", "-n", "--n"]
ARGV_SEED = 2311
ARGV_SIZE = 20_000

HELP_ARGVS = [["--help"], *([*words, "--help"] for words, _ in ARGV_COMMANDS),
              ["freegroup", "--help"]]

SHUFFLE_SEED = 2727
SHUFFLE_MAX_LEN = 2000
GREEDY_MAX_NORM = 100
GREEDY_SEEDS = (1, 2, 3)


def materialized(value):
    """value with every lazy list of a handler's result read out."""
    if isinstance(value, Iterator):
        return [item for run in value for item in run]
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    return value


# Each check imports gpfree itself, so the runner that only starts the
# interpreters needs no gpfree on its own path.


def check_json_writer() -> Iterator[tuple[bool, str]]:
    from gpfree.cli import _build_parser, _json_chunks

    digest = hashlib.sha256()
    differ = 0
    for command in JSON_COMMANDS:
        args = _build_parser()[0].parse_args(command.split())
        value = materialized(args.func(args)[0])
        text = "".join(_json_chunks(value))
        differ += text != json.dumps(value, sort_keys=True, indent=2)
        digest.update(f"{command}\n{text}\n".encode())
    yield (not differ,
           f"{len(JSON_COMMANDS)} commands, {differ} differ from json.dumps;"
           f" texts {digest.hexdigest()}")


def random_element(rng: random.Random, max_norm: int):
    """A random element of norm 1 to max_norm, with integer or half-odd coordinates."""
    from gpfree.quaternion import HurwitzInt

    half = math.isqrt(max_norm)
    while True:
        parity = rng.randrange(2)
        q = HurwitzInt(*(2 * rng.randint(-half, half) + parity for _ in range(4)))
        if 1 <= q.norm() <= max_norm:
            return q


def factor_corpus(seed: int, size: int) -> Iterator[tuple[object, list[int]]]:
    """size pairs (q, model) drawn from seed, each model a shuffled prime factorization of N(q).

    Three in five q are random elements of norm 2 to 2000, the range of
    the queries benchmark.  One in five is non-primitive, m * y for a
    rational integer m from 2 to 15, so that some cofactor lies in pH.
    One in ten is a power of 1 + i times y, as 2 is the one ramified
    prime, and one in ten a product of two to four random elements of
    norm up to 60.
    """
    from gpfree.counting import factorize
    from gpfree.quaternion import HurwitzInt

    rng = random.Random(seed)
    for _ in range(size):
        roll = rng.random()
        if roll < 0.6:
            q = random_element(rng, 2000)
            while q.norm() < 2:
                q = random_element(rng, 2000)
        elif roll < 0.8:
            q = HurwitzInt(2 * rng.randint(2, 15), 0, 0, 0) * random_element(rng, 150)
        elif roll < 0.9:
            q = random_element(rng, 60)
            for _ in range(rng.randint(1, 8)):
                q = HurwitzInt(2, 2, 0, 0) * q
        else:
            q = random_element(rng, 60)
            for _ in range(rng.randint(1, 3)):
                q = q * random_element(rng, 60)
            while q.norm() < 2:
                q = q * random_element(rng, 60)
        model = [p for p, e in factorize(q.norm()) for _ in range(e)]
        rng.shuffle(model)
        yield q, model


def class_scan_factors(q, model: list[int]) -> tuple[tuple[int, int, int, int], ...]:
    """The factors as the first left divisor in each norm-p class, the leftover unit absorbed last."""
    from gpfree.quaternion import HurwitzInt, _left_quotient, _norm_coords

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


def check_factor() -> Iterator[tuple[bool, str]]:
    from gpfree.quaternion import factor_modelled

    digest = hashlib.sha256()
    pairs = differ = 0
    for q, model in factor_corpus(FACTOR_SEED, FACTOR_SIZE):
        pairs += 1
        got = tuple(f.coords for f in factor_modelled(q, model).factors)
        digest.update(f"{q.coords} {model} {got}\n".encode())
        differ += got != class_scan_factors(q, model)
    yield (not differ,
           f"{pairs} factorizations, {differ} differ from the class scan;"
           f" factors {digest.hexdigest()}")


def factorize_corpus(seed: int, size: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """size pairs (n, pairs) drawn from seed, pairs being n's factorization by construction.

    Each n multiplies one to four prime powers p**e, e from 1 to 3, each
    p drawn from the primes below 2**16 or from LARGE_PRIMES with even
    odds.  A power that would take n past FACTORIZE_BITS bits, up to
    which Pollard's rho has its full budget, is left out.
    """
    small = [p for p in range(2, 1 << 16) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    rng = random.Random(seed)
    for _ in range(size):
        n, exponents = 1, {}
        for _ in range(rng.randint(1, 4)):
            p = rng.choice(small if rng.random() < 0.5 else LARGE_PRIMES)
            e = rng.randint(1, 3)
            if (n * p**e).bit_length() <= FACTORIZE_BITS:
                n *= p**e
                exponents[p] = exponents.get(p, 0) + e
        yield n, sorted(exponents.items())


def check_factorize() -> Iterator[tuple[bool, str]]:
    from gpfree.counting import factorize

    digest = hashlib.sha256()
    differ = 0
    for n, pairs in factorize_corpus(FACTORIZE_SEED, FACTORIZE_SIZE):
        differ += list(factorize(n)) != pairs
        digest.update(f"{n} {pairs}\n".encode())
    yield (not differ,
           f"{FACTORIZE_SIZE} products of known primes, {differ} differ from their"
           f" construction; pairs {digest.hexdigest()}")


def argv_corpus(seed: int, size: int) -> Iterator[list[str]]:
    """size argvs drawn from seed: mostly well-formed, each malformed in some way on purpose."""
    rng = random.Random(seed)
    for _ in range(size):
        argv = ["--output", rng.choice(OUTPUTS)] if rng.random() < 0.3 else []
        words, options = rng.choice(ARGV_COMMANDS)
        roll = rng.random()
        if roll < 0.03:
            words = words[:-1]
        elif roll < 0.05:
            words = ["no-such-thing"]
        elif roll < 0.07:
            words = [words[-1][:-1]]
        argv += words
        for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
            option = rng.choice(options)
            roll = rng.random()
            if roll < 0.05:
                argv.append(rng.choice(STRAYS))
                continue
            if roll < 0.10:
                option = option[:-1]
            elif roll < 0.14:
                argv.append(f"{option}={rng.choice(NUMBERS + EMITS)}")
                continue
            argv.append(option)
            if option == "--quick":
                continue
            roll = rng.random()
            if roll < 0.04:
                continue
            if roll < 0.25:
                argv.append(rng.choice(ODD_VALUES))
            else:
                argv.append(rng.choice(EMITS if option == "--emit" else NUMBERS))
        yield argv


def parse_captured(parser, argv: list[str]) -> tuple[object, str, str]:
    """parse_args(argv) with its output captured: (the Namespace or exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def check_cli_parse() -> Iterator[tuple[bool, str]]:
    from gpfree.cli import _build_parser, _direct_parse

    os.environ["COLUMNS"] = "80"  # argparse reads it whenever it formats help or usage
    parser, grammar = _build_parser()
    digest = hashlib.sha256()
    accepted = differ = 0
    for argv in argv_corpus(ARGV_SEED, ARGV_SIZE):
        result, out, err = parse_captured(parser, argv)
        if isinstance(result, int):
            outcome = f"exit {result}\n{out}\n{err}"
        else:
            outcome = repr(sorted((key, getattr(value, "__name__", value))
                                  for key, value in vars(result).items()))
        digest.update(f"{argv!r}\n{outcome}\n".encode())
        args = _direct_parse(argv, grammar)
        if args is not None:
            accepted += 1
            differ += args != result
    yield (not differ,
           f"{accepted} of {ARGV_SIZE} argvs accepted by the direct parse, {differ} differ;"
           f" argparse outcomes {digest.hexdigest()}")


def check_help() -> Iterator[tuple[bool, str]]:
    from gpfree.cli import _build_parser

    os.environ["COLUMNS"] = "80"
    parser = _build_parser()[0]
    for argv in HELP_ARGVS:
        _, out, _ = parse_captured(parser, argv)
        yield True, f"{' '.join(argv):26s} {hashlib.sha256(out.encode()).hexdigest()}"


def check_greedy() -> Iterator[tuple[bool, str]]:
    from gpfree.greedy import _shuffle, build_greedy

    differ = 0
    for size in range(SHUFFLE_MAX_LEN + 1):
        ours, oracle = random.Random(SHUFFLE_SEED + size), random.Random(SHUFFLE_SEED + size)
        x, y = list(range(size)), list(range(size))
        _shuffle(ours, x)
        oracle.shuffle(y)
        differ += x != y or ours.getstate() != oracle.getstate()
    digest = hashlib.sha256()
    for seed in GREEDY_SEEDS:
        report = build_greedy(GREEDY_MAX_NORM, rng=random.Random(seed))
        excluded = [(c.coords, a.coords, b.coords, r.coords) for c, (a, b, r) in report.excluded]
        digest.update(f"{seed} {[q.coords for q in report.included]} {excluded}"
                      f" {report.shell_ends}\n".encode())
    yield (not differ,
           f"{SHUFFLE_MAX_LEN + 1} lengths, {differ} differ from Random.shuffle;"
           f" build_greedy({GREEDY_MAX_NORM}) over seeds {GREEDY_SEEDS} {digest.hexdigest()}")


CHECKS = {"json-writer": check_json_writer, "factor": check_factor, "factorize": check_factorize,
          "cli-parse": check_cli_parse, "help": check_help, "greedy": check_greedy}


def line(version: str, check: str, ok: bool, detail: str) -> str:
    return f"{version:10s} {check:12s} {'ok' if ok else 'FAIL':4s} {detail}"


def run_here() -> int:
    """Run every check in this process, one line per result; 1 if any failed."""
    version = platform.python_version()
    failed = False
    for name, check in CHECKS.items():
        try:
            for ok, detail in check():
                print(line(version, name, ok, detail), flush=True)
                failed |= not ok
        except Exception as exc:  # a check that raises fails; the others still run
            print(line(version, name, False, f"raised {type(exc).__name__}: {exc}"), flush=True)
            failed = True
    return 1 if failed else 0


def run_all() -> int:
    """Run run_here under each python3.1x on PATH; 1 if any failed or none was found."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    found = [(name, path) for name in INTERPRETERS if (path := shutil.which(name))]
    if not found:
        print(line("-", "start", False, f"none of {INTERPRETERS[0]}..{INTERPRETERS[-1]} on PATH"))
        return 1
    failed = False
    for name, path in found:
        try:
            proc = subprocess.run([path, __file__, "--here"], env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(line(name, "start", False, f"{path} ran past {TIMEOUT_S} s"))
            failed = True
            continue
        print(proc.stdout, end="")
        if proc.returncode != 0:
            failed = True
            if "FAIL" not in proc.stdout:
                # A traceback ends with its message; a launcher's error starts with it.
                err = proc.stderr.strip().splitlines() or [""]
                said = " / ".join(dict.fromkeys((err[0].strip(), err[-1].strip())))
                print(line(name, "start", False, f"{path} exited {proc.returncode}: {said}"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_here() if sys.argv[1:] == ["--here"] else run_all())

"""Check the CLI's direct parse against argparse, and hash what argparse writes.

    PYTHONPATH=src python scripts/compare_cli_parse.py

gpfree.cli.run parses a well-formed argv itself (cli._direct_parse) and
leaves every other argv to argparse.  The script draws a seeded corpus
of argvs, well-formed and not (see corpus), and checks that every argv
the direct parse accepts gets the Namespace that parse_args gives.  It
then prints one sha256 over what parse_args makes of the whole corpus
(each Namespace, or each exit code with its stdout and stderr) and the
sha256 of each --help text at 80 columns: trees that build the same
parser print the same hashes under one interpreter.  On a tree without
_direct_parse only the hashes are printed.  Exits 1 if any accepted
argv differs.  Run it under every interpreter the package supports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import random
import sys
from collections.abc import Iterator

import gpfree.cli as cli

# Each command's words and options, written out apart from the parser's own grammar.
COMMANDS = [
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

HELP_ARGVS = [["--help"], *([*words, "--help"] for words, _ in COMMANDS), ["freegroup", "--help"]]


def corpus(seed: int, size: int) -> Iterator[list[str]]:
    """size argvs drawn from seed: mostly well-formed, each malformed in some way on purpose."""
    rng = random.Random(seed)
    for _ in range(size):
        argv = ["--output", rng.choice(OUTPUTS)] if rng.random() < 0.3 else []
        words, options = rng.choice(COMMANDS)
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


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse reads it whenever it formats help or usage
    built = cli._build_parser()
    parser, grammar = built if isinstance(built, tuple) else (built, None)
    direct = getattr(cli, "_direct_parse", None)
    argvs = list(corpus(2311, 20_000))
    digest = hashlib.sha256()
    accepted = mismatched = 0
    for argv in argvs:
        result, out, err = parse_captured(parser, argv)
        if isinstance(result, int):
            outcome = f"exit {result}\n{out}\n{err}"
        else:
            outcome = repr(sorted((key, getattr(value, "__name__", value))
                                  for key, value in vars(result).items()))
        digest.update(f"{argv!r}\n{outcome}\n".encode())
        args = None if direct is None else direct(argv, grammar)
        if args is not None:
            accepted += 1
            if args != result:
                mismatched += 1
                print(f"MISMATCH {argv!r}: {vars(args)} against {outcome}")
    print(f"# {platform.python_implementation()} {platform.python_version()}")
    if direct is not None:
        print(f"direct parse: {accepted} of {len(argvs)} argvs accepted, {mismatched} differ")
    print(f"argparse outcomes: {digest.hexdigest()}")
    for argv in HELP_ARGVS:
        _, out, _ = parse_captured(parser, argv)
        print(f"{' '.join(argv):28s} {hashlib.sha256(out.encode()).hexdigest()}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

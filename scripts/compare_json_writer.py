"""Check the CLI's JSON writer against json.dumps, and time both.

    PYTHONPATH=src python scripts/compare_json_writer.py

For each command below, the handler's result (with every lazy list read
out) is encoded by the writer, gpfree.cli._json_text, and by
json.dumps(value, sort_keys=True, indent=2).  The script exits 1 if any
pair of texts differs, and prints the best of five timings of each.
Run it under every interpreter the package supports: from CPython 3.13
on, json.dumps encodes indented JSON in C.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from collections.abc import Iterator

from gpfree.cli import _build_parser, _json_text

COMMANDS = [
    "count --norm 7", "count --upto 1000", "count --table 50", "count --table 3000",
    *(f"enumerate --norm {n}" for n in (1, 37, 60, 2000)),
    "bounds", "rankin --max-prime 100 --max-exponent 12", "annuli-check",
    *(f"greedy-hur --max-norm {n}" for n in (1, 30, 60, 100)),
    "freegroup greedy --max-len 54", "freegroup density --n 5",
    "freegroup witness --n 95", "freegroup witness --n -6",
]


def materialized(value):
    if isinstance(value, Iterator):
        return [item for run in value for item in run]
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    return value


def best(func, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    print(f"# {platform.python_implementation()} {platform.python_version()}")
    print(f"{'command':42s} {'writer ms':>10s} {'json.dumps ms':>14s}  same")
    failed = 0
    for command in COMMANDS:
        args = _build_parser()[0].parse_args(command.split())
        value = materialized(args.func(args)[0])
        same = _json_text(value) == json.dumps(value, sort_keys=True, indent=2)
        failed += not same
        writer = best(lambda: _json_text(value))
        dumps = best(lambda: json.dumps(value, sort_keys=True, indent=2))
        print(f"{command:42s} {writer * 1e3:10.3f} {dumps * 1e3:14.3f}  {'yes' if same else 'NO'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

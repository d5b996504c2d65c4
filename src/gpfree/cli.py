"""Command line interface.

Subcommands mirror the library: count, enumerate, bounds, rankin,
annuli-check, greedy-hur, freegroup (greedy / density / witness), and
verify-all.  Output is deterministic: JSON objects have sorted keys,
exact rationals render as "p/q" strings, and decimal values are printed
to 12 significant digits, so identical invocations produce identical
bytes.

Each handler returns (result, status): a JSON-able dict or a text body,
and the exit status.  run() passes the result to _write, the one writer,
which renders a dict as sorted-key JSON and writes to stdout, to the
--output path, or, with no --output and GPFREE_OUTPUT_DIR set, to
<subcommand>.<ext> in that directory (ext is json for a dict, csv for
--emit csv, txt otherwise).

The argument parser is built once per process and reused by every
run() call; parsing keeps no state in it between calls.

Exit status: 0 on success, 1 when a verification subcommand finds a
failure, 2 for malformed invocations (argparse's convention), rejected
arguments and unwritable output paths, with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .counting import NormCount, count_norm_exact, count_upto
from .density import (
    DEFAULT_ANNULI,
    lower_bound_density,
    rankin_density,
    upper_bound_density,
    verify_annuli_gp_free,
)
from .freegroup import (
    greedy_set_contains,
    greedy_set_density,
    greedy_words_bruteforce,
    greedy_words_density,
    index_of,
    ternary,
    witness_progression,
)
from .greedy import build_greedy
from .quaternion import enumerate_norm

__all__ = ["main", "run"]


# Printed decimals round and render in this context, never the caller's,
# so an in-process caller's rounding, traps or capitals cannot change them.
_SIG12 = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def _sig12(value: Fraction | Decimal) -> str:
    if isinstance(value, Decimal):
        return _SIG12.to_sci_string(_SIG12.plus(value))
    return _SIG12.to_sci_string(_SIG12.divide(Decimal(value.numerator), Decimal(value.denominator)))


def _exact(value: Fraction) -> dict:
    return {"decimal": _sig12(value), "rational": f"{value.numerator}/{value.denominator}"}


def _write(result: dict | str, args) -> None:
    if isinstance(result, dict):
        text, extension = json.dumps(result, sort_keys=True, indent=2) + "\n", "json"
    else:
        text, extension = result, "csv" if getattr(args, "emit", None) == "csv" else "txt"
    if args.output:
        Path(args.output).write_text(text)
        return
    out_dir = os.environ.get("GPFREE_OUTPUT_DIR")
    if out_dir:
        name = args.command if not getattr(args, "subcommand", None) else (
            f"{args.command}-{args.subcommand}"
        )
        Path(out_dir, f"{name}.{extension}").write_text(text)
        return
    sys.stdout.write(text)


def _cmd_count(args) -> tuple[dict | str, int]:
    if args.table is not None:
        if args.table < 1:
            raise ValueError(f"--table must be positive, got {args.table}")
        table = NormCount.build(args.table)
        header = ("norm", "count", "cumulative")
        rows = list(zip(range(1, args.table + 1), table.per_norm.values(),
                        table.cumulative.values()))
        if args.emit == "csv":
            return "".join(f"{n},{c},{s}\n" for n, c, s in [header, *rows]), 0
        return {"command": "count", "max_norm": args.table, "provenance": "odd-divisor-sieve",
                "rows": [dict(zip(header, row)) for row in rows]}, 0
    if args.emit == "csv":
        raise ValueError("--emit csv needs --table; --norm and --upto give one JSON object")
    if args.upto is not None:
        if args.upto < 0:
            raise ValueError(f"--upto must be nonnegative, got {args.upto}")
        return {"command": "count", "provenance": "divisor-sum-swap",
                "total": count_upto(args.upto), "upto": args.upto}, 0
    return {"command": "count", "count": count_norm_exact(args.norm), "norm": args.norm,
            "provenance": "odd-divisor-formula"}, 0


def _cmd_enumerate(args) -> tuple[dict | str, int]:
    elements = enumerate_norm(args.norm)
    if args.emit == "text":
        return "".join(f"{q}\n" for q in elements), 0
    return {"command": "enumerate", "count": len(elements),
            "elements": [str(q) for q in elements], "norm": args.norm,
            "provenance": "doubled-coordinate-lattice-scan"}, 0


def _cmd_bounds(args) -> tuple[dict | str, int]:
    return {
        "command": "bounds",
        "lower": _exact(lower_bound_density()),
        "provenance": "annuli-vs-doubling-exclusion",
        "terms": "inf" if args.terms is None else args.terms,
        "upper": _exact(upper_bound_density(args.terms)),
    }, 0


def _cmd_rankin(args) -> tuple[dict | str, int]:
    est = rankin_density(args.max_prime, args.max_exponent)
    return {
        "command": "rankin",
        "monotone_direction": est.monotone_direction,
        "provenance": "euler-product-truncation",
        "truncation": {"max_exponent": est.truncation[1], "max_prime": est.truncation[0]},
        "value": _sig12(est.value),
    }, 0


def _cmd_annuli(args) -> tuple[dict | str, int]:
    ok = verify_annuli_gp_free(args.max_norm, DEFAULT_ANNULI)
    return {"command": "annuli-check", "max_norm": args.max_norm,
            "progression_free": ok, "provenance": "norm-interval-scan"}, 0 if ok else 1


def _cmd_greedy_hur(args) -> tuple[dict | str, int]:
    report = build_greedy(args.max_norm)
    if args.emit == "csv":
        lines = ["element,norm,status,witness_a,witness_b,witness_ratio"]
        for q in report.included:
            lines.append(f"{q},{q.norm()},included,,,")
        for q, (a, b, r) in report.excluded:
            lines.append(f"{q},{q.norm()},excluded,{a},{b},{r}")
        return "\n".join(lines) + "\n", 0
    per_norm: dict[str, list[str]] = {}
    for q in report.included:
        per_norm.setdefault(str(q.norm()), []).append(str(q))
    return {
        "command": "greedy-hur",
        "excluded": [
            {"element": str(q),
             "witness": {"a": str(a), "b": str(b), "ratio": str(r)}}
            for q, (a, b, r) in report.excluded
        ],
        "included_per_norm": per_norm,
        "included_total": len(report.included),
        "max_norm": report.max_norm,
        "provenance": "greedy-by-increasing-norm",
    }, 0


def _cmd_freegroup_greedy(args) -> tuple[dict | str, int]:
    kept = sorted(greedy_words_bruteforce(args.max_len), key=index_of)
    return {
        "command": "freegroup-greedy",
        "count": len(kept),
        "included": [str(w) for w in kept],
        "max_len": args.max_len,
        "provenance": "alternating-word-greedy",
    }, 0


def _cmd_freegroup_density(args) -> tuple[dict | str, int]:
    return {
        "command": "freegroup-density",
        "integers": _exact(greedy_set_density(args.n)),
        "n": args.n,
        "provenance": "greedy-share-closed-form",
        "words": _exact(greedy_words_density(args.n)),
    }, 0


def _cmd_freegroup_witness(args) -> tuple[dict | str, int]:
    wit = witness_progression(args.n)
    payload = {
        "command": "freegroup-witness",
        "member": greedy_set_contains(args.n),
        "n": args.n,
        "provenance": "ternary-digit-construction",
        "ternary": ternary(args.n),
        "witness": None,
    }
    if wit is not None:
        a, b, r = wit
        payload["witness"] = {
            "a": a, "a_ternary": ternary(a),
            "b": b, "b_ternary": ternary(b),
            "ratio": r, "ratio_ternary": ternary(r),
        }
    return payload, 0


def run_checks(quick: bool = False):
    """Run the check registry, importing gpfree.checks on first use.

    Only verify-all needs the registry, so no other subcommand pays for
    loading it.
    """
    from .checks import run_checks as run_registry

    return run_registry(quick=quick)


def _cmd_verify_all(args) -> tuple[dict | str, int]:
    results = run_checks(quick=args.quick)
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.name:<{width}} ({r.seconds:6.2f}s) {r.detail}\n"
        for r in results
    ]
    failed = [r for r in results if not r.ok]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return "".join(lines), 0 if not failed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpfree",
        description="Hurwitz quaternion arithmetic and progression-free densities",
    )
    parser.add_argument("--output", help="write the result to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count Hurwitz integers by norm")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--norm", type=int, help="count elements of exactly this norm")
    group.add_argument("--upto", type=int, help="count elements with norm up to this bound")
    group.add_argument("--table", type=int, help="tabulate counts for all norms up to this bound")
    p.add_argument("--emit", choices=["json", "csv"], default="json", help="csv needs --table")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list all elements of one norm")
    p.add_argument("--norm", type=int, required=True)
    p.add_argument("--emit", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bounds", help="density bounds for progression-free sets")
    p.add_argument(
        "--terms", type=int, default=None,
        help="exclusion terms for the upper bound (default: full series)",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("rankin", help="density of elements with Rankin norm")
    p.add_argument("--max-prime", type=int, default=10**6)
    p.add_argument("--max-exponent", type=int, default=40)
    p.set_defaults(func=_cmd_rankin)

    p = sub.add_parser("annuli-check", help="verify the annular norm set has no progression")
    p.add_argument("--max-norm", type=int, default=48 * 48)
    p.set_defaults(func=_cmd_annuli)

    p = sub.add_parser("greedy-hur", help="greedy progression-free quaternion selection")
    p.add_argument("--max-norm", type=int, default=49)
    p.add_argument("--emit", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_greedy_hur)

    p = sub.add_parser("freegroup", help="greedy sets over two involution generators")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fp = fsub.add_parser("greedy", help="greedy word selection up to a length")
    fp.add_argument("--max-len", type=int, default=18)
    fp.set_defaults(func=_cmd_freegroup_greedy)
    fp = fsub.add_parser("density", help="closed-form greedy densities at scale 3^n")
    fp.add_argument("--n", type=int, default=1)
    fp.set_defaults(func=_cmd_freegroup_density)
    fp = fsub.add_parser("witness", help="blocking progression for an integer")
    fp.add_argument("--n", type=int, required=True)
    fp.set_defaults(func=_cmd_freegroup_witness)

    p = sub.add_parser("verify-all", help="run the full check registry")
    p.add_argument(
        "--quick", action="store_true",
        help="skip the max-norm-343 greedy run",
    )
    p.set_defaults(func=_cmd_verify_all)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, status = args.func(args)
        _write(result, args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"gpfree: error: {exc}\n")
    return status


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

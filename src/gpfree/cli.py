"""Command line interface.

Subcommands mirror the library: count, enumerate, bounds, rankin,
annuli-check, greedy-hur, freegroup (greedy / density / witness), and
verify-all.  Output is deterministic: JSON objects have sorted keys,
exact rationals render as "p/q" strings, and decimal values are printed
to 12 significant digits, so identical invocations produce identical
bytes.

Each handler returns (result, status): a JSON-able dict, a text body or
an iterable of text chunks, and the exit status.  run() passes the
result to _write, the one writer, which renders a dict as sorted-key
JSON and writes to stdout, to the --output path, or, with no --output
and GPFREE_OUTPUT_DIR set, to <subcommand>.<ext> in that directory (ext
is json for a dict, csv for --emit csv, txt otherwise).  Chunks are
written one by one, so greedy-hur renders and writes one norm shell at
a time and never holds its whole output.

The JSON is the bytes of json.dumps(result, sort_keys=True, indent=2)
for what the handlers emit (see _json_chunks), which the tests check
against json.dumps itself.  Element texts are formatted from coordinate
tuples by quaternion's bulk renderers, never one str() call per element.

The argument parser is built once per process and reused by every
run() call; parsing keeps no state in it between calls.  run() parses a
well-formed request itself (_direct_parse), at a tenth of parse_args'
cost or less: [--output V] COMMAND [SUBCOMMAND] and options spelled in
full, each at most once with its value as the next token.  It reads
the Action objects that _build_parser's own add_argument calls
returned, so there is one grammar, and it gives the Namespace that
parse_args would.  Every other argv goes to parse_args unchanged, so
help, abbreviations, --opt=value forms and every usage error are
argparse's alone.

Exit status: 0 on success, 1 when a verification subcommand finds a
failure, 2 for malformed invocations (argparse's convention), rejected
arguments, unwritable output paths and exhausted memory, with a one-line
message on stderr.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
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
    greedy_set_density,
    greedy_words_bruteforce,
    greedy_words_density,
    index_of,
    ternary,
    witness_progression,
)
from .greedy import build_greedy
from .quaternion import format_elements, format_norm
from .records import Record

__all__ = ["main", "run"]


# Printed decimals round and render in this context, never the caller's,
# so an in-process caller's rounding, traps or capitals cannot change them.
_SIG12 = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def _sig12(value: Fraction | Decimal) -> str:
    if isinstance(value, Decimal):
        return _SIG12.to_sci_string(_SIG12.plus(value))
    return _SIG12.to_sci_string(_SIG12.divide(Decimal(value.numerator), Decimal(value.denominator)))


def _too_large(option: str) -> ValueError:
    return ValueError(f"{option} is too large: its exact value passes the limit of"
                      f" {sys.get_int_max_str_digits()} digits on a printed integer")


def _refuse_far_past_limit(option: str, bits: int) -> None:
    """Refuse option before its exact value is built, if that value cannot print.

    bits is a lower bound on the bit length of the value's denominator.
    More than 4 bits per digit of the interpreter's limit on a printed
    integer (0: no limit) is far past that limit, as a digit takes under
    3.33 bits, and building such a value can take minutes; _exact
    refuses the values nearer the limit, exactly.
    """
    limit = sys.get_int_max_str_digits()
    if limit and bits > 4 * limit:
        raise _too_large(option)


def _exact(value: Fraction, option: str) -> dict:
    """value as "p/q" and to 12 digits; option, the argument that sized it, names a refusal."""
    # The rational first: past the interpreter's digit limit str(int) refuses
    # at once, where Decimal(int) alone would take most of a second.  The
    # writer sorts keys.
    try:
        rational = f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _too_large(option) from None
    return {"rational": rational, "decimal": _sig12(value)}


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _column(values: list, level: int) -> tuple[str, Iterable]:
    """A %-slot and one value per list item, such that slot % value is the item's JSON text.

    The items are nested level deep.  Strs that need no escaping fill
    '"%s"' as they are, which _plain checks for the whole list at once;
    other strs and ints are encoded by one C-level map, dicts with one
    key set by _rows, and any other list item by item.
    """
    kinds = set(map(type, values))
    if kinds == {str}:
        return ('"%s"', values) if _plain(values) else ("%s", map(_quote, values))
    if kinds == {int}:
        return "%s", map(int.__repr__, values)
    if kinds == {dict}:
        rows = _rows(values, level)
        if rows is not None:
            return "%s", rows
    return "%s", ["".join(_json_chunks(value, level)) for value in values]


def _plain(strs: list[str]) -> bool:
    """Whether every str's JSON text is the str in quotes: printable ASCII without " or \\."""
    text = "".join(strs)
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _rows(rows: list[dict], level: int) -> Iterable[str] | None:
    """The JSON texts of dicts that share one key set, through one %-template.

    Each key's values form a column that _column encodes, so rows of
    nested rows of one shape (greedy-hur's witnesses) get a template at
    each level.  Returns None, for _column to go item by item, unless
    the rows share a non-empty key set.
    """
    keys = rows[0].keys()
    if not keys or not all(map(keys.__eq__, map(dict.keys, rows))):
        return None
    order = sorted(keys)
    slots, columns = zip(*[_column(list(map(itemgetter(key), rows)), level + 1) for key in order])
    inner = "\n" + "  " * (level + 1)
    template = "{" + inner + ("," + inner).join(
        _quote(key).replace("%", "%%") + ": " + slot for key, slot in zip(order, slots)
    ) + "\n" + "  " * level + "}"
    return map(template.__mod__, zip(*columns))


def _json_chunks(value, level: int = 0) -> Iterator[str]:
    """value as ``json.dumps(value, sort_keys=True, indent=2)`` writes it, nested level deep, in chunks.

    Takes what the handlers emit: dicts with str keys, lists, str, int,
    bool and None, each of exactly that type, and lazy lists.  A lazy
    list is an iterator of runs, each a list: it is written as one JSON
    list of all the runs' items, a run at a time, so it is never held
    whole.  A list is written as a lazy list of one run, and a run's
    items go through _column, which encodes a list of one type at C
    level.  A non-empty dict is written a member at a time.

    Raises:
        TypeError: for any other value, such as a float, a tuple, a set
            or a dict key that is not a str (which _quote or sorting the
            keys refuses), even where json.dumps would accept it.
    """
    kind = type(value)
    if kind is str:
        yield _quote(value)
    elif kind is int:
        yield int.__repr__(value)
    elif kind is bool or value is None:
        yield _CONSTANTS[value]
    elif kind is dict:
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, item in sorted(value.items()):
            yield sep + _quote(key) + ": "
            yield from _json_chunks(item, level + 1)
            sep = "," + inner
        yield "{}" if sep[0] == "{" else "\n" + "  " * level + "}"
    elif kind is list or isinstance(value, Iterator):
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for run in [value] if kind is list else value:
            if type(run) is not list:
                raise TypeError(f"a lazy list's runs must be lists, not {type(run).__name__}")
            if run:
                slot, column = _column(run, level + 1)
                left, _, right = slot.partition("%s")
                yield sep + left + (right + "," + inner + left).join(column) + right
                sep = "," + inner
        yield "[]" if sep[0] == "[" else "\n" + "  " * level + "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write(result: dict | str | Iterable[str], args) -> None:
    """Write a handler's result: a dict as JSON, a str as it is, or text chunks.

    Chunks are written one after another, never joined, so a lazy
    result is rendered while it is written.  A failure raised while the
    chunks are rendered or written leaves the output cut short: stdout
    keeps what was written before it, and an --output file (or the file
    in GPFREE_OUTPUT_DIR) is left holding that same prefix, not
    removed; run() then exits 2 with one line on stderr.  A reader that
    closes stdout early is such a failure: the rest of the output is
    dropped, and the interpreter's final flush goes to os.devnull.
    """
    if isinstance(result, dict):
        chunks, extension = chain(_json_chunks(result), ["\n"]), "json"
    else:
        chunks = [result] if isinstance(result, str) else result
        extension = "csv" if getattr(args, "emit", None) == "csv" else "txt"
    path = args.output
    out_dir = os.environ.get("GPFREE_OUTPUT_DIR")
    if not path and out_dir:
        name = args.command if not getattr(args, "subcommand", None) else (
            f"{args.command}-{args.subcommand}"
        )
        path = Path(out_dir, f"{name}.{extension}")
    if path:
        with open(path, "w") as out:
            out.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


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
        if args.upto > 10**12:  # count_upto's O(sqrt(N)) loop takes about 0.6 s there
            raise ValueError(f"--upto must be at most 10**12, got {args.upto}")
        return {"command": "count", "provenance": "divisor-sum-swap",
                "total": count_upto(args.upto), "upto": args.upto}, 0
    return {"command": "count", "count": count_norm_exact(args.norm), "norm": args.norm,
            "provenance": "odd-divisor-formula"}, 0


def _cmd_enumerate(args) -> tuple[dict | str, int]:
    if args.emit == "text":
        return "\n".join(format_norm(args.norm)) + "\n", 0
    elements = format_norm(args.norm)
    return {"command": "enumerate", "count": len(elements), "elements": elements,
            "norm": args.norm, "provenance": "doubled-coordinate-lattice-scan"}, 0


def _cmd_bounds(args) -> tuple[dict | str, int]:
    option = f"--terms {args.terms}"
    if args.terms is not None:
        # The upper bound at t terms reduces to a denominator of 64**t.
        _refuse_far_past_limit(option, 6 * args.terms + 1)
    return {
        "command": "bounds",
        "lower": _exact(lower_bound_density(), "the lower bound"),
        "provenance": "annuli-vs-doubling-exclusion",
        "terms": "inf" if args.terms is None else args.terms,
        "upper": _exact(upper_bound_density(args.terms), option),
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


_COORDS = attrgetter("da", "db", "dc", "dd")


def _texts(elements, end: str = "") -> list[str]:
    return format_elements(map(_COORDS, elements), end)


def _witness_texts(shell: tuple) -> Iterator[tuple[str, str, str, str]]:
    """(element, a, b, ratio) texts of each excluded element of a shell."""
    elements, witnesses = zip(*shell)
    a, b, r = zip(*witnesses)
    return zip(_texts(elements), _texts(a), _texts(b), _texts(r))


def _witness_rows(shell: tuple) -> list[dict]:
    return [{"element": c, "witness": {"a": a, "b": b, "ratio": r}}
            for c, a, b, r in _witness_texts(shell)]


def _greedy_csv(included: list[tuple], excluded: list[tuple]) -> Iterator[str]:
    yield "element,norm,status,witness_a,witness_b,witness_ratio\n"
    for n, shell in enumerate(included, 1):
        if shell:
            yield "".join(_texts(shell, f",{n},included,,,\n"))
    for n, shell in enumerate(excluded, 1):
        if shell:
            yield "".join(map(f"%s,{n},excluded,%s,%s,%s\n".__mod__, _witness_texts(shell)))


def _cmd_greedy_hur(args) -> tuple[dict | Iterator[str], int]:
    report = build_greedy(args.max_norm)
    ends = list(pairwise(report.shell_ends))
    included = [report.included[i:j] for (i, _), (j, _) in ends]
    excluded = [report.excluded[e:f] for (_, e), (_, f) in ends]
    if args.emit == "csv":
        return _greedy_csv(included, excluded), 0
    # Lazy lists (see _json_chunks): each shell is rendered as it is written.
    return {
        "command": "greedy-hur",
        "excluded": map(_witness_rows, filter(None, excluded)),
        "included_per_norm": {str(n): map(_texts, [shell])
                              for n, shell in enumerate(included, 1) if shell},
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
    option = f"--n {args.n}"
    # Both denominators exceed 3**n > 2**(3n/2).
    _refuse_far_past_limit(option, 3 * args.n // 2)
    return {
        "command": "freegroup-density",
        "integers": _exact(greedy_set_density(args.n), option),
        "n": args.n,
        "provenance": "greedy-share-closed-form",
        "words": _exact(greedy_words_density(args.n), option),
    }, 0


def _cmd_freegroup_witness(args) -> tuple[dict | str, int]:
    wit = witness_progression(args.n)
    payload = {
        "command": "freegroup-witness",
        "member": wit is None,
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


def _cmd_verify_all(args) -> tuple[dict | str, int]:
    # Only verify-all needs the check registry, so no other subcommand
    # pays for loading it.
    from .checks import run_checks

    results = run_checks(quick=args.quick)
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.name:<{width}} ({r.seconds:6.2f}s) {r.detail}\n"
        for r in results
    ]
    failed = [r for r in results if not r.ok]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return "".join(lines), 0 if not failed else 1


class _Grammar(Record):
    """One level of the parser, as _direct_parse reads it.

    Everything here is an object that argparse returned while the parser
    was built, read through its public attributes, so the parser and the
    direct parse share one grammar.  options maps each option string of
    the level to the Action that add_argument returned for it; of the
    Actions in exclusive, a required mutually exclusive group, exactly
    one must be given.  A level with subcommands holds the Action that
    add_subparsers returned and a grammar per subcommand; a leaf holds
    the handler that set_defaults gives it as func.
    """

    __slots__ = ("options", "exclusive", "subparsers", "commands", "handler")
    options: dict[str, argparse.Action]
    exclusive: tuple[argparse.Action, ...]
    subparsers: argparse.Action | None
    commands: dict[str, _Grammar] | None
    handler: Callable | None
    _defaults = {"exclusive": (), "subparsers": None, "commands": None, "handler": None}


def _leaf(parser: argparse.ArgumentParser, handler: Callable, *actions: argparse.Action,
          exclusive: tuple[argparse.Action, ...] = ()) -> _Grammar:
    parser.set_defaults(func=handler)
    options = {name: action for action in (*exclusive, *actions) for name in action.option_strings}
    return _Grammar(options, exclusive, handler=handler)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, _Grammar]:
    """The argument parser, and the grammar that _direct_parse reads from its Actions."""
    parser = argparse.ArgumentParser(
        prog="gpfree",
        description="Hurwitz quaternion arithmetic and progression-free densities",
    )
    output = parser.add_argument("--output", help="write the result to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("count", help="count Hurwitz integers by norm")
    group = p.add_mutually_exclusive_group(required=True)
    modes = (
        group.add_argument("--norm", type=int, help="count elements of exactly this norm"),
        group.add_argument("--upto", type=int, help="count elements with norm up to this bound"),
        group.add_argument("--table", type=int,
                           help="tabulate counts for all norms up to this bound"),
    )
    commands["count"] = _leaf(
        p, _cmd_count,
        p.add_argument("--emit", choices=["json", "csv"], default="json", help="csv needs --table"),
        exclusive=modes,
    )

    p = sub.add_parser("enumerate", help="list all elements of one norm")
    commands["enumerate"] = _leaf(
        p, _cmd_enumerate,
        p.add_argument("--norm", type=int, required=True),
        p.add_argument("--emit", choices=["json", "text"], default="json"),
    )

    p = sub.add_parser("bounds", help="density bounds for progression-free sets")
    commands["bounds"] = _leaf(p, _cmd_bounds, p.add_argument(
        "--terms", type=int, default=None,
        help="exclusion terms for the upper bound (default: full series)",
    ))

    p = sub.add_parser("rankin", help="density of elements with Rankin norm")
    commands["rankin"] = _leaf(
        p, _cmd_rankin,
        p.add_argument("--max-prime", type=int, default=10**6),
        p.add_argument("--max-exponent", type=int, default=40),
    )

    p = sub.add_parser("annuli-check", help="verify the annular norm set has no progression")
    commands["annuli-check"] = _leaf(
        p, _cmd_annuli, p.add_argument("--max-norm", type=int, default=48 * 48),
    )

    p = sub.add_parser("greedy-hur", help="greedy progression-free quaternion selection")
    commands["greedy-hur"] = _leaf(
        p, _cmd_greedy_hur,
        p.add_argument("--max-norm", type=int, default=49),
        p.add_argument("--emit", choices=["json", "csv"], default="json"),
    )

    p = sub.add_parser("freegroup", help="greedy sets over two involution generators")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    fp = fsub.add_parser("greedy", help="greedy word selection up to a length")
    greedy = _leaf(fp, _cmd_freegroup_greedy, fp.add_argument("--max-len", type=int, default=18))
    fp = fsub.add_parser("density", help="closed-form greedy densities at scale 3^n")
    density = _leaf(fp, _cmd_freegroup_density, fp.add_argument("--n", type=int, default=1))
    fp = fsub.add_parser("witness", help="blocking progression for an integer")
    witness = _leaf(fp, _cmd_freegroup_witness, fp.add_argument("--n", type=int, required=True))
    commands["freegroup"] = _Grammar({}, subparsers=fsub, commands={
        "greedy": greedy, "density": density, "witness": witness,
    })

    p = sub.add_parser("verify-all", help="run the full check registry")
    commands["verify-all"] = _leaf(p, _cmd_verify_all, p.add_argument(
        "--quick", action="store_true",
        help="skip the max-norm-343 greedy run",
    ))

    return parser, _Grammar({"--output": output}, subparsers=sub, commands=commands)


def _direct_parse(argv: list[str], level: _Grammar) -> argparse.Namespace | None:
    """The Namespace that parse_args gives for a well-formed argv, or None to leave it to argparse.

    Well-formed is [--output V] COMMAND [SUBCOMMAND] (OPTION [V])*, with
    every option spelled in full and given at most once, each value the
    next token (starting with "-" only as "-" and ASCII digits), each
    value passing its Action's type and choices, every required option
    given and exactly one of a level's exclusive options.  Anything else
    (-h, abbreviations, --opt=value, repeats, --, unknown tokens, every
    usage error) gets None, so argparse alone writes help and errors.
    """
    values = {}
    i = 0
    while True:
        given = {}
        while i < len(argv) and argv[i].startswith("-"):
            action = level.options.get(argv[i])
            if action is None or action.dest in given:
                return None
            if action.nargs == 0:
                value = action.const
            else:
                i += 1
                if i == len(argv):
                    return None
                text = argv[i]
                if text.startswith("-") and not (text[1:].isdigit() and text.isascii()):
                    return None
                try:
                    value = text if action.type is None else action.type(text)
                except (TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            given[action.dest] = value
            i += 1
        for action in level.options.values():
            if action.required and action.dest not in given:
                return None
            values[action.dest] = given.get(action.dest, action.default)
        if level.exclusive and sum(action.dest in given for action in level.exclusive) != 1:
            return None
        if level.subparsers is None:
            if i < len(argv):
                return None
            return argparse.Namespace(**values, func=level.handler)
        if i == len(argv) or argv[i] not in level.commands:
            return None
        values[level.subparsers.dest] = argv[i]
        level = level.commands[argv[i]]
        i += 1


def run(argv: list[str] | None = None) -> int:
    parser, grammar = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _direct_parse(argv, grammar) or parser.parse_args(argv)
    try:
        result, status = args.func(args)
        _write(result, args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"gpfree: error: {exc}\n")
    except MemoryError:
        parser.exit(2, "gpfree: error: out of memory\n")
    return status


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

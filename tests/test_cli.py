"""End-to-end command tests driven through run() in process."""

import decimal
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Iterator
from itertools import islice, tee
from pathlib import Path
from types import SimpleNamespace

import pytest

import gpfree
from gpfree.checks import CheckResult
from gpfree.cli import _TABLE_RUN, _build_parser, _direct_parse, _json_chunks, run
from gpfree.counting import MAX_TABLE_NORM, NormCount, count_norm_exact, count_upto
from gpfree.freegroup import IDENTITY
from gpfree.greedy import build_greedy
from gpfree.quaternion import enumerate_norm


ROOT = Path(__file__).parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


class TestCount:
    def test_single_norm(self, capsys):
        code, payload = invoke_json(capsys, "count", "--norm", "7")
        assert code == 0
        assert payload["count"] == 192
        assert payload["norm"] == 7
        assert payload["provenance"] == "odd-divisor-formula"

    def test_upto(self, capsys):
        code, payload = invoke_json(capsys, "count", "--upto", "100")
        assert code == 0
        assert payload["total"] == 99336

    def test_table_json(self, capsys):
        code, payload = invoke_json(capsys, "count", "--table", "3")
        assert code == 0
        assert payload["rows"] == [
            {"norm": 1, "count": 24, "cumulative": 24},
            {"norm": 2, "count": 24, "cumulative": 48},
            {"norm": 3, "count": 96, "cumulative": 144},
        ]

    def test_table_csv(self, capsys):
        for table, expected in [
            ("3", "norm,count,cumulative\n1,24,24\n2,24,48\n3,96,144\n"),
            ("5", "norm,count,cumulative\n1,24,24\n2,24,48\n3,96,144\n4,24,168\n5,144,312\n"),
        ]:
            code, out = invoke(capsys, "count", "--table", table, "--emit", "csv")
            assert code == 0
            assert out == expected

    def test_negative_norm_message(self, capsys):
        # The message names what the user passed, not a helper's parameter.
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", "-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "gpfree: error: norm must be positive, got -3\n"

    @pytest.mark.parametrize("argv, message", [
        ("count --upto -1", "--upto must be nonnegative, got -1"),
        ("count --upto 1000000000001", "--upto must be at most 10**12, got 1000000000001"),
        ("count --table 0", "--table must be positive, got 0"),
        ("count --table -4 --emit csv", "--table must be positive, got -4"),
        *((f"count --table {MAX_TABLE_NORM + 1} --emit {emit}",
           f"--table must be at most {MAX_TABLE_NORM}, where the cumulative count still"
           f" fits 64 bits, got {MAX_TABLE_NORM + 1}") for emit in ("json", "csv")),
    ])
    def test_rejected_bound_names_option(self, argv, message, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpfree: error: {message}\n"

    def test_table_memory_bound(self, tmp_path):
        # The rows are rendered and written a run at a time: about 3.5 MB
        # at peak for 20,000 rows, against 10.6 MB when every row's dict
        # was built before the first write.
        target = tmp_path / "table.json"
        tracemalloc.start()
        try:
            code = run(["--output", str(target), "count", "--table", "20000", "--emit", "json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(target.read_text())["rows"][-1] == {
            "norm": 20000, "count": count_norm_exact(20000), "cumulative": count_upto(20000)}
        assert peak < 6 * 10**6

    def test_upto_at_the_bound_is_counted(self, monkeypatch, capsys):
        # count_upto itself takes about 0.6 s at 10**12; the bound is what is tested.
        monkeypatch.setattr("gpfree.cli.count_upto", lambda n: -n)
        code, payload = invoke_json(capsys, "count", "--upto", str(10**12))
        assert code == 0
        assert payload["total"] == -(10**12)

    def test_upto_past_the_bound_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(["count", "--upto", str(10**21)])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", f"gpfree: error: --upto must be at most 10**12, got {10**21}\n")

    def test_modes_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", "3", "--upto", "5"])
        assert exc.value.code == 2

    def test_unproved_cofactor_exits_2(self, capsys):
        # 2**89 - 1 passes Miller-Rabin past the bound that makes it a proof.
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", "618970019642690137449562111"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gpfree: error: cannot factor 618970019642690137449562111:")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_cofactor_past_the_rho_budget_exits_2(self, capsys):
        n = (2**89 - 1) * (2**61 - 1)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", str(n)])
        assert time.perf_counter() - start < 2
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gpfree: error: cannot factor {n}: Pollard's rho")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_large_cofactor_past_the_rho_budget_exits_2(self, capsys):
        # 648 bits, where the budget is 2**20 * (150 / 648)**2 steps.
        n = (2**127 - 1) * (2**521 - 1)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", str(n)])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gpfree: error: cannot factor {n}: Pollard's rho")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def exhaust(norm):
            raise MemoryError
        monkeypatch.setattr("gpfree.cli.count_norm_exact", exhaust)
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", "7"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "gpfree: error: out of memory\n")


class TestEnumerate:
    def test_json(self, capsys):
        code, payload = invoke_json(capsys, "enumerate", "--norm", "2")
        assert code == 0
        assert payload["count"] == 24
        assert len(payload["elements"]) == 24
        assert payload["elements"][0] == "(-2,-2,0,0)/2"

    def test_text(self, capsys):
        code, out = invoke(capsys, "enumerate", "--norm", "1", "--emit", "text")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 24
        assert "(1,1,1,1)/2" in lines

    # Enumeration order fixes greedy witnesses and modelled factors, so
    # the bytes are pinned, not just the element sets.
    @pytest.mark.parametrize("argv, sha256", [
        (("--norm", "2047"), "f3c07a2527743a4370b9e8b1981d821c2b3604fa32c6f57b617bfc6c4b8cf57b"),
        (("--norm", "50", "--emit", "text"),
         "b4dbff0a9e03c4da1060c37fb7ceef5af9a7aca70b161ea0570629fb88ad925f"),
    ], ids=["json-2047", "text-50"])
    def test_pinned_bytes(self, argv, sha256, capsys):
        code, out = invoke(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


    def test_zero_norm_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["enumerate", "--norm", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "gpfree: error: norm must be positive, got 0\n"

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matches_str_oracle(self, n, capsys):
        # The elements as str() renders them, in enumerate_norm's order.
        elements = [str(q) for q in enumerate_norm(n)]
        expected = {"command": "enumerate", "count": len(elements), "elements": elements,
                    "norm": n, "provenance": "doubled-coordinate-lattice-scan"}
        _, out = invoke(capsys, "enumerate", "--norm", str(n))
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        _, out = invoke(capsys, "enumerate", "--norm", str(n), "--emit", "text")
        assert out == "".join(f"{q}\n" for q in elements)


class TestBounds:
    def test_default_terms(self, capsys):
        code, payload = invoke_json(capsys, "bounds")
        assert code == 0
        assert payload["lower"]["rational"] == "17665627/18662400"
        assert payload["upper"]["rational"] == "20/21"
        assert payload["lower"]["decimal"].startswith("0.9465892")
        assert payload["terms"] == "inf"

    def test_two_terms(self, capsys):
        code, payload = invoke_json(capsys, "bounds", "--terms", "2")
        assert code == 0
        assert payload["upper"]["rational"] == "3901/4096"

    def test_deterministic_bytes(self, capsys):
        _, first = invoke(capsys, "bounds")
        _, second = invoke(capsys, "bounds")
        assert first == second

    def test_terms_past_the_digit_limit_exits_2_at_once(self, capsys):
        # The upper bound at 100000 terms has about 180,000 digits in its
        # denominator, past the 4300 that str(int) renders.
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(["bounds", "--terms", "100000"])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gpfree: error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit of 4300 digits on str(int), restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


class TestDigitLimit:
    # Under the default limit, --terms 2380 and --n 9011 are the largest
    # values whose exact output prints; one more refuses with one line.
    @pytest.mark.parametrize("argv, key, digits", [
        ("bounds --terms 2380", "upper", 4299),
        ("freegroup density --n 9011", "integers", 4300),
        ("freegroup density --n 9011", "words", 4300),
    ])
    def test_largest_that_prints(self, argv, key, digits, default_digit_limit, capsys):
        code, payload = invoke_json(capsys, *argv.split())
        assert code == 0
        assert max(map(len, payload[key]["rational"].split("/"))) == digits

    # Values far past the limit refuse as fast, before they are built,
    # which took from 2.3 s to over a minute for the last four.
    @pytest.mark.parametrize("argv, option", [
        ("bounds --terms 2381", "--terms 2381"),
        ("freegroup density --n 9012", "--n 9012"),
        ("bounds --terms 100000000", "--terms 100000000"),
        ("freegroup density --n 1000000", "--n 1000000"),
        ("freegroup density --n 2000000", "--n 2000000"),
        ("freegroup density --n 10000000", "--n 10000000"),
    ])
    def test_one_more_names_the_option(self, argv, option, default_digit_limit, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"gpfree: error: {option} is too large: its exact"
                                           " value passes the limit of 4300 digits on a"
                                           " printed integer\n")

    def test_no_limit_prints(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, payload = invoke_json(capsys, "bounds", "--terms", "3000")
            expected = f"{(20 * 64**3000 + 1) // 21}/{64**3000}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0
        assert payload["upper"]["rational"] == expected


class TestCallerDecimalContext:
    # run() called in process must print the same decimals whatever
    # decimal context its caller has set.
    def test_rounding_mode(self, capsys):
        # 20/21 = 0.95238095238095...: half-even gives ...381, ROUND_DOWN ...380.
        with decimal.localcontext() as ctx:
            ctx.rounding = decimal.ROUND_DOWN
            code, payload = invoke_json(capsys, "bounds")
        assert code == 0
        assert payload["upper"]["decimal"] == "0.952380952381"

    def test_inexact_trap(self, capsys):
        with decimal.localcontext() as ctx:
            ctx.traps[decimal.Inexact] = True
            code, payload = invoke_json(capsys, "bounds")
        assert code == 0
        assert payload["upper"]["decimal"] == "0.952380952381"

    def test_exponent_capitals(self, capsys):
        with decimal.localcontext() as ctx:
            ctx.capitals = 0
            code, payload = invoke_json(capsys, "freegroup", "density", "--n", "50")
        assert code == 0
        assert payload["integers"]["decimal"] == "1.56832854548E-9"


class TestRankin:
    def test_small_truncation(self, capsys):
        code, payload = invoke_json(
            capsys, "rankin", "--max-prime", "100", "--max-exponent", "12"
        )
        assert code == 0
        assert payload["value"].startswith("0.7726480999")
        assert payload["monotone_direction"] == "over"
        assert payload["truncation"] == {"max_exponent": 12, "max_prime": 100}


class TestAnnuli:
    def test_passes_at_block_size(self, capsys):
        code, payload = invoke_json(capsys, "annuli-check", "--max-norm", "2304")
        assert code == 0
        assert payload["progression_free"] is True


class TestGreedyHur:
    def test_json_shape(self, capsys):
        code, payload = invoke_json(capsys, "greedy-hur", "--max-norm", "8")
        assert code == 0
        total_excluded = len(payload["excluded"])
        assert payload["included_total"] + total_excluded == 624
        assert payload["included_per_norm"]["1"][0] == "(-2,0,0,0)/2"
        witness = payload["excluded"][0]["witness"]
        assert set(witness) == {"a", "b", "ratio"}

    def test_csv_header(self, capsys):
        code, out = invoke(capsys, "greedy-hur", "--max-norm", "4", "--emit", "csv")
        assert code == 0
        assert out.startswith("element,norm,status,witness_a,witness_b,witness_ratio\n")
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 168

    # Output bytes of the greedy at norm 49 as the backward-search builder
    # wrote them, and at norm 100 as the tuple forward scan wrote them; a
    # moved hash means a moved witness.
    @pytest.mark.parametrize("max_norm, emit, sha256", [
        ("49", "csv", "8631dc7e1c2f8a420ae0833dcf2703dfc980cfc539b0cd752bb70718d0f2296b"),
        ("49", "json", "fd1a599fd817e2d4e0041ef0b10102d7a5d911e5abe0c9f238ed5f1a393dc3a4"),
        ("100", "csv", "57901119670291448fedc086ac7bb7099e8b0437cd09c97701d6a34b7c30c42f"),
    ], ids=["csv", "json", "csv-100"])
    def test_pinned_bytes(self, max_norm, emit, sha256, capsys):
        code, out = invoke(capsys, "greedy-hur", "--max-norm", max_norm, "--emit", emit)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


    # The output as the handler wrote it before it streamed: str() of each
    # element, a norm() call per row, json.dumps and one joined CSV body.
    @pytest.mark.parametrize("max_norm", range(1, 31))
    def test_matches_str_oracle(self, max_norm, capsys):
        report = build_greedy(max_norm)
        per_norm = {}
        for q in report.included:
            per_norm.setdefault(str(q.norm()), []).append(str(q))
        expected = {
            "command": "greedy-hur",
            "excluded": [{"element": str(q), "witness": {"a": str(a), "b": str(b), "ratio": str(r)}}
                         for q, (a, b, r) in report.excluded],
            "included_per_norm": per_norm,
            "included_total": len(report.included),
            "max_norm": max_norm,
            "provenance": "greedy-by-increasing-norm",
        }
        _, out = invoke(capsys, "greedy-hur", "--max-norm", str(max_norm))
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
        lines = ["element,norm,status,witness_a,witness_b,witness_ratio"]
        lines += [f"{q},{q.norm()},included,,," for q in report.included]
        lines += [f"{q},{q.norm()},excluded,{a},{b},{r}" for q, (a, b, r) in report.excluded]
        _, out = invoke(capsys, "greedy-hur", "--max-norm", str(max_norm), "--emit", "csv")
        assert out == "\n".join(lines) + "\n"


class TestFreegroup:
    def test_greedy_words(self, capsys):
        code, payload = invoke_json(capsys, "freegroup", "greedy", "--max-len", "6")
        assert code == 0
        assert payload["included"] == ["I", "xy", "yxyx", "xyxyxy"]
        assert payload["count"] == 4

    @pytest.mark.parametrize("max_len", [2 * 3**10 + 1, 10**6])
    def test_greedy_past_the_bound_exits_2_at_once(self, max_len, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(["freegroup", "greedy", "--max-len", str(max_len)])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", f"gpfree: error: --max-len must be at most 118098, got {max_len}\n")

    def test_greedy_at_the_bound_is_run(self, monkeypatch, capsys):
        # The greedy writes 121 MB of JSON there; the bound is what is tested.
        monkeypatch.setattr("gpfree.cli.greedy_words_bruteforce", lambda max_len: {IDENTITY})
        code, payload = invoke_json(capsys, "freegroup", "greedy", "--max-len", str(2 * 3**10))
        assert code == 0
        assert payload["max_len"] == 2 * 3**10
        assert payload["included"] == ["I"]

    def test_density(self, capsys):
        code, payload = invoke_json(capsys, "freegroup", "density", "--n", "1")
        assert code == 0
        assert payload["integers"]["rational"] == "4/7"
        assert payload["words"]["rational"] == "4/13"

    def test_witness_excluded(self, capsys):
        code, payload = invoke_json(capsys, "freegroup", "witness", "--n", "95")
        assert code == 0
        assert payload["member"] is False
        assert payload["ternary"] == "10112"
        assert payload["witness"]["a"] == 55
        assert payload["witness"]["b"] == 75
        assert payload["witness"]["ratio"] == 20

    def test_witness_member(self, capsys):
        code, payload = invoke_json(capsys, "freegroup", "witness", "--n", "-6")
        assert code == 0
        assert payload["member"] is True
        assert payload["witness"] is None


def materialized(value):
    """value with each lazy list (an iterator of runs) read out into one list."""
    if isinstance(value, Iterator):
        return [item for run in value for item in run]
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    return value


def copied(value):
    """Two copies of a handler's result, whose lazy lists read each run once between them."""
    if isinstance(value, Iterator):
        return tee(value)
    if isinstance(value, dict):
        pairs = {key: copied(item) for key, item in value.items()}
        return ({key: first for key, (first, _) in pairs.items()},
                {key: second for key, (_, second) in pairs.items()})
    return value, value


def handler_result(argv):
    args = _build_parser()[0].parse_args(argv)
    result, _ = args.func(args)
    return result


class TestJsonWriter:
    # The writer must give json.dumps(v, sort_keys=True, indent=2)'s bytes
    # on every handler's result, and refuse what no handler emits, so that
    # a new handler cannot drift from json.dumps unnoticed.
    HANDLER_ARGV = [
        "count --norm 1", "count --norm 7", "count --norm 123456789",
        "count --upto 0", "count --upto 1000", "count --table 1", "count --table 50",
        "count --table 3000",
        *(f"enumerate --norm {n}" for n in (*range(1, 61), 2000)),
        "bounds", "bounds --terms 1", "bounds --terms 3",
        "rankin --max-prime 100 --max-exponent 12", "annuli-check",
        *(f"greedy-hur --max-norm {n}" for n in (*range(1, 31), 60, 100)),
        *(f"freegroup greedy --max-len {n}" for n in (0, 1, 2, 6, 18, 54)),
        *(f"freegroup density --n {n}" for n in range(6)),
        *(f"freegroup witness --n {n}" for n in (*range(-15, 31), 95)),
    ]

    @pytest.mark.parametrize("argv", HANDLER_ARGV)
    def test_handler_result(self, argv, capsys):
        # One run of the handler for both encoders; the writer gets lazy lists.
        result, lazy = copied(handler_result(argv.split()))
        expected = json.dumps(materialized(result), sort_keys=True, indent=2)
        assert "".join(_json_chunks(lazy)) == expected
        _, out = invoke(capsys, *argv.split())
        assert out == expected + "\n"

    def test_witness_range_has_members(self):
        members = [n for n in range(-15, 31)
                   if handler_result(["freegroup", "witness", "--n", str(n)])["witness"] is None]
        assert len(members) > 3

    SYNTHETIC = [
        {}, [], [[]], [{}], [{}, {}], {"a": {}}, {"a": []}, [[], [[]], {}],
        "s", "", 0, -7, 10**40, -(10**40), True, False, None,
        [True, False, None], [1, True, 0, False], [0, -1, 10**30, -(10**30)],
        ["plain", "(1,-1,0,0)/2", ""],
        ["\u00e9", "\u2603", "\U0001f600", 'a"b', "back\\slash", "\x00\x1f\x7f", "tab\t", "x"],
        ["%s", "%d", "%%", "%(a)s"],
        # One escape each, in lists otherwise plain ASCII.
        ['a"b', "plain"], ["back\\slash"], ["\x7f"], ["\x1f", "x"], ["tab\t"], ["x", "\u00e9"],
        [{"k": 'q"'}, {"k": "p"}],
        [{"%s": "%d", "%": 1}, {"%": 2, "%s": "%%"}],
        [{"a": 1, "b": [{"c": None}, {}]}, {"b": [], "a": 2}],
        [{"x": 1}, {"y": 2}], [{"x": 1}, {"x": "s"}], [{"x": 1}, {"x": 1, "y": 2}],
        [{"k": True}, {"k": 1}], [{"k": None}, {"k": "\u00fc"}], [{"e": {"a": "1", "b": "2"}}] * 3,
        [[{"a": [1, 2]}, {"a": []}], [{"a": ["x"]}]],
        {"b": 1, "a": [1, "x", None, True, {"z": []}], "\u00e9": "\u00fc", "": 0, "A": {"n": {"m": [{}]}}},
    ]

    @pytest.mark.parametrize("value", SYNTHETIC, ids=range(len(SYNTHETIC)))
    def test_synthetic(self, value):
        assert "".join(_json_chunks(value)) == json.dumps(value, sort_keys=True, indent=2)

    def test_lazy_lists(self):
        def value():
            return {"f": 3, "a": iter([[1, 2], [], ["x"]]), "b": iter([]), "e": iter([[]]),
                    "c": {"d": iter([[{"e": 1}], [{"e": 2}]]), "g": [1]}}
        expected = json.dumps(materialized(value()), sort_keys=True, indent=2)
        assert "".join(_json_chunks(value())) == expected
        assert ("".join(_json_chunks(iter([[1], [], [{"a": "b"}]]), 2))
                == "".join(_json_chunks([1, {"a": "b"}], 2)))

    REFUSED = [
        1.5, float("nan"), [1.5], {"a": 2.0}, (1, 2), [(1, 2)], {1, 2}, frozenset(), b"x",
        {1: "a"}, {"a": {None: "b"}}, {True: 1}, [{"a": 1}, {"a": 1.5}], [{1: "a"}, {1: "b"}],
        [{"a": (1,)}, {"a": (2,)}],
    ]

    @pytest.mark.parametrize("value", REFUSED, ids=range(len(REFUSED)))
    def test_refuses_what_no_handler_emits(self, value):
        with pytest.raises(TypeError):
            "".join(_json_chunks(value))

    @pytest.mark.parametrize("make", [
        lambda: {"a": iter([[1.5]])}, lambda: {2: iter([])}, lambda: iter([(1,)]),
        lambda: {"a": {"b": iter([[[], (1,)]])}},
    ], ids=range(4))
    def test_refuses_in_lazy_lists(self, make):
        with pytest.raises(TypeError):
            "".join(_json_chunks(make()))


class TestStreamFailure:
    # A failure after the first chunk is written still exits 2 with one
    # line on stderr; what was written before it stays.
    HEADERS = {"csv": "element,norm,status,witness_a,witness_b,witness_ratio\n",
               "json": '{\n  "command": "greedy-hur",\n  "excluded": '}

    @pytest.fixture
    def failing_render(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("render failed")
        monkeypatch.setattr("gpfree.cli.format_elements", fail)

    @pytest.mark.parametrize("emit", ["csv", "json"])
    def test_stdout(self, emit, failing_render, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["greedy-hur", "--max-norm", "4", "--emit", emit])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == self.HEADERS[emit]
        assert captured.err == "gpfree: error: render failed\n"

    @pytest.mark.parametrize("emit", ["csv", "json"])
    def test_output_file_keeps_prefix(self, emit, failing_render, tmp_path, capsys):
        target = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["--output", str(target), "greedy-hur", "--max-norm", "4", "--emit", emit])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gpfree: error: render failed\n"
        assert target.read_text() == self.HEADERS[emit]

    @staticmethod
    def fail_after_first_run(monkeypatch):
        """Make count --table's cumulative column fail once its first run is read."""
        def build(max_norm):
            table = NormCount.build(max_norm)

            def values():
                yield from islice(table.cumulative.values(), _TABLE_RUN)
                raise ValueError("render failed")
            return NormCount(max_norm, table.per_norm, SimpleNamespace(values=values))
        monkeypatch.setattr("gpfree.cli.NormCount", SimpleNamespace(build=build))

    # count --table writes its rows a run at a time, so a failure in the
    # second run leaves the header and the first run's rows.
    @pytest.mark.parametrize("emit", ["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_table_keeps_prefix(self, emit, to_file, tmp_path, capsys, monkeypatch):
        argv = ["count", "--table", "5000", "--emit", emit]
        _, whole = invoke(capsys, *argv)
        if emit == "csv":
            expected = "".join(whole.splitlines(keepends=True)[:_TABLE_RUN + 1])
        else:
            end = f'"norm": {_TABLE_RUN}\n    }}'
            expected = whole[:whole.index(end) + len(end)]
        self.fail_after_first_run(monkeypatch)
        target = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["--output", str(target), *argv] if to_file else argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "gpfree: error: render failed\n"
        assert (target.read_text() if to_file else captured.out) == expected

    # As `gpfree greedy-hur --max-norm 100 --emit csv | head -1`, about 4 MB
    # for a reader that takes one line and goes, and as `gpfree count
    # --norm 5 | true`, whose reader is gone before the first write; with
    # stdout buffered, the interpreter's own final flush must not fail too.
    @pytest.mark.parametrize("argv, lines_read", [
        ("greedy-hur --max-norm 100 --emit csv", 1),
        ("count --norm 5", 0),
    ], ids=["one-line-read", "nothing-read"])
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_reader_closes_early(self, argv, lines_read, unbuffered):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(gpfree.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "gpfree.cli", *argv.split()],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b"gpfree: error: [Errno 32] Broken pipe\n"


class TestOutputTargets:
    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "bounds.json"
        code = run(["--output", str(target), "bounds"])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["upper"]["rational"] == "20/21"

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GPFREE_OUTPUT_DIR", str(tmp_path))
        code = run(["freegroup", "density", "--n", "0"])
        assert code == 0
        assert capsys.readouterr().out == ""
        written = tmp_path / "freegroup-density.json"
        assert json.loads(written.read_text())["integers"]["rational"] == "2/3"

    # A text body takes its extension from --emit: csv, else txt.
    @pytest.mark.parametrize("argv, name", [
        ("count --table 3 --emit csv", "count.csv"),
        ("enumerate --norm 1 --emit text", "enumerate.txt"),
        ("greedy-hur --max-norm 4 --emit csv", "greedy-hur.csv"),
    ])
    def test_output_dir_text_extension(self, argv, name, tmp_path, capsys, monkeypatch):
        code, expected = invoke(capsys, *argv.split())
        assert code == 0
        monkeypatch.setenv("GPFREE_OUTPUT_DIR", str(tmp_path))
        code, out = invoke(capsys, *argv.split())
        assert code == 0 and out == ""
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_text() == expected

    FAKE_CHECKS = [CheckResult("alpha", True, "fine", 0.01),
                   CheckResult("beta", False, "broke", 0.02)]
    FAKE_REPORT = "PASS alpha (  0.01s) fine\nFAIL beta  (  0.02s) broke\n1/2 checks passed\n"

    def test_verify_all_output_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gpfree.checks.run_checks", lambda quick: self.FAKE_CHECKS)
        target = tmp_path / "v.txt"
        code = run(["--output", str(target), "verify-all", "--quick"])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert target.read_text() == self.FAKE_REPORT

    def test_verify_all_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gpfree.checks.run_checks", lambda quick: self.FAKE_CHECKS)
        monkeypatch.setenv("GPFREE_OUTPUT_DIR", str(tmp_path))
        code = run(["verify-all", "--quick"])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert (tmp_path / "verify-all.txt").read_text() == self.FAKE_REPORT


class TestVerifyAll:
    def test_reports_and_exit_code(self, capsys, monkeypatch):
        fake = [
            CheckResult("alpha", True, "fine", 0.01),
            CheckResult("beta-long-name", False, "broke", 0.02),
        ]
        monkeypatch.setattr("gpfree.checks.run_checks", lambda quick: fake)
        code, out = invoke(capsys, "verify-all")
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[0].startswith("PASS alpha")
        assert lines[1].startswith("FAIL beta-long-name")
        assert lines[-1] == "1/2 checks passed"

    def test_all_green_exits_zero(self, capsys, monkeypatch):
        fake = [CheckResult("alpha", True, "fine", 0.01)]
        monkeypatch.setattr("gpfree.checks.run_checks", lambda quick: fake)
        code, out = invoke(capsys, "verify-all")
        assert code == 0
        assert out.strip().split("\n")[-1] == "1/1 checks passed"


def loaded_after_cli_import(module):
    """Whether a fresh interpreter has module loaded after `import gpfree.cli`."""
    code = f"import sys, gpfree.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(gpfree.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return {"True\n": True, "False\n": False}[result.stdout]


def test_import_leaves_checks_unloaded():
    # verify-all alone needs the check registry, so importing the CLI
    # must not load it.
    assert not loaded_after_cli_import("gpfree.checks")


def test_import_leaves_json_unloaded():
    # The writer takes its string encoder from _json; json.encoder would
    # load the whole json package, decoder and scanner with it.
    assert not loaded_after_cli_import("json")


# Output bytes of every subcommand, recorded before the handlers
# returned their results to one writer; a moved hash means moved output.
PINNED_BYTES = [
    ("count --norm 7", "b5c56a55cc38a3ae49fb54c266b12d9557e2c782c7b2b353a0b578db5481143d"),
    ("count --upto 100", "8e866d13a6f89ffdab100ba6849da1968ecbd9941416655e3dddc56b04502a3f"),
    ("count --table 50", "19ddaf67f03de98e3b29afbeee86ef5c8c79270415d8bed683c8a942d125673e"),
    ("count --table 50 --emit csv",
     "071d527b687818ed1aef0b07b572a446268e8bb111e77840d7f5d2b3fe2267f6"),
    # recorded before the divisor sieve became slices and block copies
    ("count --table 20000 --emit csv",
     "a88a2061e07fdb045e36a283df000233ba71e9d0bdc1750bc6979529ab79022e"),
    ("enumerate --norm 10", "8b98976f1e0bccf69eddeeaf43559d698d6c1d6823171ad19d1741efc3c2120e"),
    ("enumerate --norm 10 --emit text",
     "e663ef4d34e5516451c583a0dadc40ffc27c0f3871867ffe68ad95de8835292f"),
    ("bounds", "48084f6828b34179add35f470959a446b74c7ea3eaa869b17ce73b49e4ecbad6"),
    ("bounds --terms 3", "59c7b04e64481e601e518add7c7cfbec8ff8ed594f55591dc5a8957adfda7b38"),
    ("rankin --max-prime 100 --max-exponent 12",
     "4aef316ed332f810cbb2d1903449cc8ba6ebc98bfd4a4cf2602966da0fe7152a"),
    # recorded before the Euler factors were summed a block of primes at a time
    ("rankin", "78490e760dafbd4957b2a0e8f4b46e3a3d753816a606e99f73910e4d4ac2ebd3"),
    ("annuli-check", "4800b62f13b78583ca2db6f2c98c21d941fffd75ee9f8f6dd1b7ecc2c33b31fd"),
    # recorded before the annuli were scanned one ratio at a time
    ("annuli-check --max-norm 100000",
     "ab310e84fcd1192dd3b8d3635a083bc730d0cc9171f4e60a7de93884d04d4cd1"),
    ("greedy-hur --max-norm 20",
     "c82acabeb3beff2abf540e061a4e96b1e950895c54b2e8762e9d5729944bc80b"),
    ("greedy-hur --max-norm 20 --emit csv",
     "9bf3c9109febe56d619b1626156d340c90831df361ea20037c2a287d10bc002e"),
    # recorded before the output was rendered from coordinates and streamed
    ("greedy-hur --max-norm 100",
     "0b1c57b402a936ac48baec0705511905a30463b655bef6bf987313637bca3209"),
    ("count --table 2000",
     "5a7b362a2473d337493f560e26417f3e442f7ad5210ddfebd08aeedeb3f76488"),
    ("enumerate --norm 2000 --emit text",
     "4aa80e84967d409cea93e110c5861ef40d798936e30776a16a9cec13c429033e"),
    ("freegroup greedy", "21a0f63c8ce8a9b87975d831fed086ded1b114337f5605ee072815be02ec5cda"),
    # recorded before the word greedy ran on blocked sets of coordinates
    ("freegroup greedy --max-len 486",
     "483d50a8700c8db5652a4939dd6b1f575351e6e24def3a406aa022569d4651db"),
    ("freegroup density", "1d235c89792ecd341ae2e1c18d824ced313b6a0c1e7683211a08403e6e346349"),
    ("freegroup witness --n 95",
     "0952eb914f6d64054887bc886320e1cf986362789bd14a4a7689064a8e786033"),
    ("freegroup witness --n -6",
     "a2503d205e34c7069e64c1a9cc4d1a3cd2a515f2805183d744736c18d08ecf8c"),
    # recorded before the witnesses were built on chunked digit strings;
    # |n| has 29 base-3 digits, five 6-digit chunks
    ("freegroup witness --n -58244235879234",
     "6d0b999f577d694af05a7999090c7068ac733246475dfc71258b6b1e3e7a3c51"),
]


class TestPinnedBytes:
    @pytest.mark.parametrize("argv, sha256", PINNED_BYTES)
    def test_deterministic_bytes(self, argv, sha256, capsys):
        code, out = invoke(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.skipif(sys.version_info[:3] != (3, 11, 7),
                    reason="pinned under CPython 3.11.7; argparse's layout differs between versions")
class TestHelpBytes:
    # stdout of each --help and stderr of some usage errors at 80 columns,
    # recorded while argparse parsed every request; a moved hash means
    # argparse no longer writes what it wrote then.
    @pytest.mark.parametrize("argv, code, stream, sha256", [
        ("--help", 0, "out", "5b567efc0772e8cfb18cdf485aee5b986af62af773c66bec7cff634d14775466"),
        ("count --help", 0, "out",
         "c1cb38b459adfdfce698ed50ea763bf36eb59c97f59a74970c5a07ef89bfe230"),
        ("enumerate --help", 0, "out",
         "837e356713c7da0b82c4e76a2a7c1bd4d5a48d2fbce062b986c3d2d53a71a3db"),
        ("bounds --help", 0, "out",
         "03f629a11187e7c93f0a9c9c9761ad8a4fdfc56fe87ebb46332a9bd82ecd083b"),
        ("rankin --help", 0, "out",
         "f78242d38f41d1551fccd85216dd9816d5c7c9d8b3970b2a8d17cf04018d08ca"),
        ("annuli-check --help", 0, "out",
         "604fe17c59ab38ca9d45ac1adc4143842c95130aab9ae135f25fb039375f2ce0"),
        ("greedy-hur --help", 0, "out",
         "67cdb954bbaee763f6950ea96b06eea17395487df0d1b7738920d4bf813776de"),
        ("freegroup --help", 0, "out",
         "623f77c6e6d24124d2bfea7df5ca54f40aadbe47758d887014838ff17b425b3b"),
        ("freegroup greedy --help", 0, "out",
         "f2e5681afe848899235ba6a3d5894252b13c1a0335205db29d708da1a9377c18"),
        ("freegroup density --help", 0, "out",
         "d028a473854ab9f916985baa3ca8714a8270793cab17d4dae0adfa7261ad20ee"),
        ("freegroup witness --help", 0, "out",
         "f8ccd8845da49836294a6fbca95aab340571554df8685e20129d9a1761bd7902"),
        ("verify-all --help", 0, "out",
         "32a71af37737c23d5491a937bd220c90e6a195bbae14273abc124c40f52e0607"),
        ("", 2, "err", "1ade01b04943d00755624bb74294b4a219cd6615a08c4235abb407926a212d64"),
        ("count", 2, "err", "67c99302efe430a9d165664bc106a659acbbd4bd9cc7b324d14e01ac99a8353e"),
        ("count --norm 3 --upto 5", 2, "err",
         "bf5642c8bafae39707d91cd576bb4788a788e09d72e4633e9234893eab1dba7e"),
        ("count --norm x", 2, "err",
         "0ee426d3ab9ed83db3118f8c29f6e4b648e29f6fe1d9080f53c416a537be3f7b"),
        ("enumerate", 2, "err",
         "b7bd5ac5e819d692e6750fb2f23a0ce4499637c175930d898248a1ed60798705"),
        ("count --nor", 2, "err",
         "d9a83db05c0cb04d2230b92a4aa6dc6fe4f6caa639e7586b6982ee73ddffa0e5"),
        ("freegroup", 2, "err",
         "70e0b6c51f1daa2a6bd7b185fc03e9a44875e771de991a171866e875c36162a6"),
        ("no-such-thing", 2, "err",
         "6e390ef9f4fee17e05a030c6740e0d9deb609980a9106dc7d77620c9e08e745e"),
        ("count --norm 3 extra", 2, "err",
         "08a4362f631f99feec9a4c8b8687b6ae6bda601006e3cb26e322e587d96736eb"),
        ("--output", 2, "err", "f55aa886ee0dd3bfc1a97a39a73308e1d3ee810bfd1e7125c24b40a301a61d0b"),
    ])
    def test_pinned(self, argv, code, stream, sha256, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        assert exc.value.code == code
        captured = capsys.readouterr()
        quiet = captured.err if stream == "out" else captured.out
        assert quiet == ""
        text = captured.out if stream == "out" else captured.err
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


def load_module(path: Path):
    """The module at path, a repo file outside the package, loaded on its own."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parsed(argv):
    """(what the direct parse gives, what parse_args gives) for an argv the direct parse takes."""
    parser, grammar = _build_parser()
    args = _direct_parse(argv, grammar)
    assert args is not None, argv
    return vars(args), vars(parser.parse_args(argv))


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


class TestDirectParse:
    # run() parses a well-formed argv itself and leaves every other argv
    # to argparse; what it parses must be exactly what parse_args gives.
    def test_seeded_corpus(self):
        parser, grammar = _build_parser()
        commands = set()
        accepted = 0
        for argv in argv_corpus(23, 3000):
            args = _direct_parse(argv, grammar)
            if args is not None:
                assert vars(args) == vars(parser.parse_args(argv)), argv
                commands.add((args.command, getattr(args, "subcommand", None)))
                accepted += 1
        assert accepted > 600
        assert commands == {
            ("count", None), ("enumerate", None), ("bounds", None), ("rankin", None),
            ("annuli-check", None), ("greedy-hur", None), ("freegroup", "greedy"),
            ("freegroup", "density"), ("freegroup", "witness"), ("verify-all", None),
        }

    @pytest.mark.parametrize("argv", [
        ["count", "--norm", "-15"],
        ["count", "--norm", "007"],
        ["count", "--upto", "1_000"],
        ["count", "--table", " 12 ", "--emit", "csv"],
        ["count", "--norm", "\u0661\u0662"],
        ["--output", "-7", "count", "--emit", "json", "--norm", "5"],
        ["--output", "", "enumerate", "--norm", "2", "--emit", "text"],
        ["bounds"],
        ["rankin", "--max-exponent", "3", "--max-prime", "-0"],
        ["freegroup", "witness", "--n", "-6"],
        ["freegroup", "density"],
        ["verify-all", "--quick"],
        ["verify-all"],
    ], ids=repr)
    def test_accepted(self, argv):
        direct, expected = parsed(argv)
        assert direct == expected

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["count", "-h"], ["freegroup", "witness", "--help"],
        ["count", "--nor", "5"], ["count", "--norm=5"], ["count", "--norm", "5", "--norm", "6"],
        ["count", "--", "--norm", "5"], ["count", "--norm", "5", "--"],
        ["count", "--norm", "x"], ["count", "--norm", "-x"], ["count", "--norm", ""],
        ["count", "--norm", "-"], ["count", "--norm", "-1.5"], ["count", "--norm", "1.5"],
        ["count", "--norm", "-\u0661\u0662"], ["count", "--norm", "-1 "],
        ["count", "--norm", "5", "--emit", "xml"], ["enumerate", "--norm", "5", "--emit", "csv"],
        ["count", "--norm", "5", "--upto", "3"], ["count"], ["count", "--emit", "csv"],
        ["enumerate"], ["freegroup", "witness"], ["freegroup"], ["freegroup", "--n", "5"],
        ["no-such-thing"], ["count", "--norm"], ["--output"], ["--output", "-"],
        ["--output", "x", "--output", "y", "bounds"], ["count", "--output", "x", "--norm", "5"],
        ["count", "--norm", "5", "extra"], ["bounds", "--terms"], ["verify-all", "--quick", "1"],
        ["verify-all", "--quick", "--quick"], ["freegroup", "witness", "--n", "--n"],
    ], ids=repr)
    def test_declined(self, argv):
        assert _direct_parse(argv, _build_parser()[1]) is None

    def test_accepts_the_queries_pool(self, tmp_path):
        workloads = load_module(ROOT / "perfbench" / "workloads.py")
        pool = workloads.query_pool(workloads.SIZES["full"])["cli"]
        assert len(pool) == 45
        for args in pool:
            direct, expected = parsed(["--output", str(tmp_path / "cli-1.out"), *args])
            assert direct == expected

    @pytest.mark.parametrize("argv, sha256", PINNED_BYTES)
    def test_accepts_pinned_argvs(self, argv, sha256):
        direct, expected = parsed(argv.split())
        assert direct == expected

    def test_accepts_readme_examples(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        examples = [line.partition("#")[0].split()[1:] for line in readme.splitlines()
                    if line.startswith("gpfree ")]
        assert len(examples) == 13
        for argv in examples:
            direct, expected = parsed(argv)
            assert direct == expected


class TestParsing:
    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        "count --norm 0",
        "count --upto -1",
        "count --table 0",
        "count --norm 3 --emit csv",
        "count --upto 3 --emit csv",
        "enumerate --norm 0",
        "enumerate --norm 0 --emit text",
        "greedy-hur --max-norm 0",
        "greedy-hur --max-norm 0 --emit csv",
        "rankin --max-prime 2",
        "annuli-check --max-norm 10",
        "bounds --terms 0",
        "freegroup density --n -1",
        "freegroup greedy --max-len -1",
        "--output /nonexistent/x.json count --norm 3",
        "GPFREE_OUTPUT_DIR=/nonexistent count --norm 3",
    ])
    def test_rejected_argument_exits_two(self, argv, capsys, monkeypatch):
        words = argv.split()
        # Leading NAME=value words set environment variables, as in a shell.
        while "=" in words[0]:
            name, value = words.pop(0).split("=", 1)
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            run(words)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gpfree: error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-thing"])
        assert exc.value.code == 2


class TestParserReuse:
    # run() reuses one parser per process; no call may see another's state.
    def test_output_flag_does_not_stick(self, tmp_path, capsys):
        target = tmp_path / "x.json"
        assert run(["--output", str(target), "count", "--norm", "3"]) == 0
        code, payload = invoke_json(capsys, "count", "--norm", "5")
        assert code == 0 and payload["norm"] == 5
        assert json.loads(target.read_text())["norm"] == 3

    def test_emit_does_not_stick(self, capsys):
        code, out = invoke(capsys, "count", "--table", "5", "--emit", "csv")
        assert code == 0 and out.startswith("norm,count,cumulative\n")
        code, payload = invoke_json(capsys, "count", "--table", "5")
        assert code == 0 and payload["max_norm"] == 5

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", "3", "--upto", "5"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out = invoke(capsys, "count", "--norm", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b5c56a55cc38a3ae49fb54c266b12d9557e2c782c7b2b353a0b578db5481143d"
        )

    def test_help_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: gpfree ")

    def test_declined_call_between_direct_calls(self, capsys):
        # argparse alone takes the abbreviation and the = form; all four
        # calls print the same bytes.
        outs = []
        for argv in (["count", "--norm", "5"], ["count", "--nor", "5"],
                     ["count", "--norm=5"], ["count", "--norm", "5"]):
            code, out = invoke(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert len(set(outs)) == 1

    def test_usage_error_between_direct_calls(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        assert run(["--output", str(target), "count", "--table", "3", "--emit", "csv"]) == 0
        with pytest.raises(SystemExit) as exc:
            run(["count", "--table", "3", "--emit", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, payload = invoke_json(capsys, "count", "--norm", "7")
        assert code == 0
        assert payload == {"command": "count", "count": 192, "norm": 7,
                           "provenance": "odd-divisor-formula"}
        assert target.read_text().startswith("norm,count,cumulative\n")

"""End-to-end command tests driven through run() in process."""

import decimal
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpfree
from gpfree.checks import CheckResult
from gpfree.cli import run


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
        ("count --table 0", "--table must be positive, got 0"),
        ("count --table -4 --emit csv", "--table must be positive, got -4"),
    ])
    def test_rejected_bound_names_option(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gpfree: error: {message}\n"

    def test_modes_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["count", "--norm", "3", "--upto", "5"])
        assert exc.value.code == 2


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


class TestFreegroup:
    def test_greedy_words(self, capsys):
        code, payload = invoke_json(capsys, "freegroup", "greedy", "--max-len", "6")
        assert code == 0
        assert payload["included"] == ["I", "xy", "yxyx", "xyxyxy"]
        assert payload["count"] == 4

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
        monkeypatch.setattr("gpfree.cli.run_checks", lambda quick: self.FAKE_CHECKS)
        target = tmp_path / "v.txt"
        code = run(["--output", str(target), "verify-all", "--quick"])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert target.read_text() == self.FAKE_REPORT

    def test_verify_all_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gpfree.cli.run_checks", lambda quick: self.FAKE_CHECKS)
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
        monkeypatch.setattr("gpfree.cli.run_checks", lambda quick: fake)
        code, out = invoke(capsys, "verify-all")
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[0].startswith("PASS alpha")
        assert lines[1].startswith("FAIL beta-long-name")
        assert lines[-1] == "1/2 checks passed"

    def test_all_green_exits_zero(self, capsys, monkeypatch):
        fake = [CheckResult("alpha", True, "fine", 0.01)]
        monkeypatch.setattr("gpfree.cli.run_checks", lambda quick: fake)
        code, out = invoke(capsys, "verify-all")
        assert code == 0
        assert out.strip().split("\n")[-1] == "1/1 checks passed"


def test_import_leaves_checks_unloaded():
    # verify-all alone needs the check registry, so importing the CLI
    # must not load it.
    code = "import sys, gpfree.cli; print('gpfree.checks' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(gpfree.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == "False\n"


class TestPinnedBytes:
    # Output bytes of every subcommand, recorded before the handlers
    # returned their results to one writer; a moved hash means moved output.
    @pytest.mark.parametrize("argv, sha256", [
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
        ("freegroup greedy", "21a0f63c8ce8a9b87975d831fed086ded1b114337f5605ee072815be02ec5cda"),
        # recorded before the word greedy ran on blocked sets of coordinates
        ("freegroup greedy --max-len 486",
         "483d50a8700c8db5652a4939dd6b1f575351e6e24def3a406aa022569d4651db"),
        ("freegroup density", "1d235c89792ecd341ae2e1c18d824ced313b6a0c1e7683211a08403e6e346349"),
        ("freegroup witness --n 95",
         "0952eb914f6d64054887bc886320e1cf986362789bd14a4a7689064a8e786033"),
        ("freegroup witness --n -6",
         "a2503d205e34c7069e64c1a9cc4d1a3cd2a515f2805183d744736c18d08ecf8c"),
    ])
    def test_deterministic_bytes(self, argv, sha256, capsys):
        code, out = invoke(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256


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
        "greedy-hur --max-norm 0",
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

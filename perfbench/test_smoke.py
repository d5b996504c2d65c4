"""Smoke test of the benchmark at tiny sizes.

Run from the root of the checkout: python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seed", "3",
         "--seconds", "0.2", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def copy_benchmark(root: Path) -> None:
    """Copy the benchmark's own files into root/perfbench."""
    (root / "perfbench").mkdir()
    for path in [*HERE.glob("*.py"), HERE / "reference.json"]:
        shutil.copyfile(path, root / "perfbench" / path.name)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(trace):
    proc = bench("--workload", "all", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    for workload in run.WORKLOADS:
        for metric in declared:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
            assert any(line.startswith(f"[{workload}] {metric['name']} = ")
                       and f" {metric['unit']}" in line for line in lines)
        assert f"[{workload}] error_rate = 0 share  (0 of " in proc.stdout
    if trace == "1":
        for name in run.COMPUTED:
            assert f"{name} = " in proc.stdout and "(computed from the inputs)" in proc.stdout
        crosschecks = [json.loads(line.split("crosscheck ", 1)[1])
                       for line in lines if " crosscheck " in line]
        # Like the tracer, expect a cross-check only where its private helper exists.
        expected = {metric for layer, helper, _, _, metric in tracer.PRIVATE_COUNTS
                    if hasattr(importlib.import_module(f"gpfree.{layer}"), helper)}
        assert {c["metric"] for c in crosschecks} == expected
        for check in crosschecks:
            assert check["agrees"]
            assert check["traced"] == check.get("computed_until_witness", check["computed"])
    else:
        assert any(line.startswith("# measured {") for line in lines)


def test_declared_metrics_match_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_corrupted_reference_is_a_failed_operation(tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    digests = reference["queries"]["tiny"]["witness_progression"]
    digests[:] = ["0" * 16] * len(digests)
    reference["euler-tables"]["tiny"]["rankin_density"] = "0" * 16
    reference["greedy-shells"]["tiny"]["kept_digest"] = "0" * 16
    path.write_text(json.dumps(reference))
    proc = bench("--workload", "all", root=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    for workload, label in (("queries", "witness_progression"),
                            ("euler-tables", "rankin_density"),
                            ("greedy-shells", "build_greedy")):
        assert f"[{workload}] FAILED {label}: " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The gpfree benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports gpfree from src/ there and
writes only under .perfbench/.  Workloads: greedy-shells, euler-tables,
queries, or "all" for the three in turn.  Each run starts worker
processes one after another, never two at once:

* --trace 0: one process that also runs timed passes for --seconds,
  with SETUP_PROBES - 1 processes that only set up, half before it and
  half after.  Prints the end-to-end metrics.
* --trace 1: an untraced worker and a traced worker, --seconds/2 each.
  Prints the per-layer metrics and trace.overhead_ratio.

Times are in reference seconds.  On a shared host a VM's speed can
swing by up to 2x within seconds, so each untraced worker also times a
fixed calibration loop every 50 ms, from a signal handler, during the
operations themselves (worker.SpeedSampler).  A pass's operation times
are scaled by CALIBRATION_REF_S over the harmonic mean loop time during
that pass: they read as the times on a host where the loop takes
exactly CALIBRATION_REF_S.  Each process's set-up time is scaled the
same way, by the loop timed before gpfree is imported.  The times as measured
are printed beside them, and as one "# measured" JSON line just before
the result.  peak_rss_mb, the per-layer metrics and
trace.overhead_ratio are as measured.

Every output is checked against perfbench/reference.json; in a traced
run, so is each cross-check of a computed work count.  Metric lines
and an environment line come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("greedy-shells", "euler-tables", "queries")
SETUP_PROBES = 40
WORKER_TIMEOUT_S = 170
CALIBRATION_REF_S = 0.0005

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "quaternion.mul_calls": "count",
    "quaternion.objects_created": "count",
    "quaternion.enumerate_calls": "count",
    "quaternion.enumerate_s": "s",
    "quaternion.elements_enumerated": "count",
    "quaternion.left_divide_calls": "count",
    "quaternion.left_divide_hit_ratio": "ratio",
    "quaternion.factor_s": "s",
    "greedy.self_s": "s",
    "greedy.shell_s_p50": "s",
    "greedy.shell_s_max": "s",
    "greedy.nonsquarefree_time_share": "ratio",
    "greedy.candidates": "count",
    "greedy.excluded": "count",
    "greedy.kept_ratio": "ratio",
    "greedy.ratio_tests": "count",
    "greedy.mul_per_candidate": "ratio",
    "density.rankin_s": "s",
    "density.primes_folded": "count",
    "density.annuli_s": "s",
    "density.annuli_triples_scanned": "count",
    "density.contains_calls": "count",
    "density.contains_s": "s",
    "counting.table_s": "s",
    "counting.count_upto_s": "s",
    "counting.divisor_sum_s": "s",
    "freegroup.ints_greedy_s": "s",
    "freegroup.words_greedy_s": "s",
    "freegroup.witness_calls": "count",
    "freegroup.witness_s": "s",
    "cli.overhead_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}
COMPUTED = ("greedy.ratio_tests", "density.primes_folded", "density.annuli_triples_scanned")


class BenchError(Exception):
    pass


def head_commit() -> str:
    """The checkout's HEAD commit, read from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """What a result must be read with: code, interpreter, cores and load."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": head_commit(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(args, workload: str, seconds: float, trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--size", args.size, "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_s(run: dict) -> list[float]:
    """A worker's pass times as measured: the sum of its operation times."""
    return [sum(ops) / 1e3 for ops in run["op_ms"]]


def latencies(run: dict, factors: list[float]) -> dict:
    """wall_s, op_p50_ms, op_p90_ms and ops_per_s, each pass's times scaled by its factor."""
    ops = [op * f for pass_ops, f in zip(run["op_ms"], factors) for op in pass_ops]
    return {
        "wall_s": statistics.median(s * f for s, f in zip(pass_s(run), factors)),
        "op_p50_ms": percentile(ops, 50),
        "op_p90_ms": percentile(ops, 90),
        "ops_per_s": len(ops) / (sum(ops) / 1000),
    }


def end_to_end(args, workload: str) -> dict:
    # Probes on both sides of the timed run see more of the host's speed swings.
    before = SETUP_PROBES // 2
    probes = [spawn(args, workload, 0, False, setup_only=True) for _ in range(before)]
    run = spawn(args, workload, args.seconds, False)
    probes += [spawn(args, workload, 0, False, setup_only=True)
               for _ in range(SETUP_PROBES - 1 - before)]
    probes.append(run)
    passes = len(run["op_ms"])
    ops = sum(len(pass_ops) for pass_ops in run["op_ms"])
    measured = {"setup_s": statistics.median(p["setup_s"] for p in probes),
                **latencies(run, [1.0] * passes)}
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * CALIBRATION_REF_S / p["setup_loop_s"]
                                     for p in probes),
        **latencies(run, [CALIBRATION_REF_S / loop for loop in run["loop_s"]]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(probes)} processes",
        "wall_s": f"median of {passes} passes",
        "op_p50_ms": f"{ops} operations",
        "op_p90_ms": f"{ops} operations, {ops - int(0.9 * ops)} beyond p90",
        "ops_per_s": "",
        "peak_rss_mb": f"{run['rss_set_in_checks_mb']:.6g} of it set while checking",
    }
    for name, value in measured.items():
        notes[name] = f"as measured {value:.6g}" + (f", {notes[name]}" if notes[name] else "")
    return {"metrics": metrics, "notes": notes, "runs": [run], "measured": measured}


def per_layer(args, workload: str) -> dict:
    plain = spawn(args, workload, args.seconds / 2, False)
    traced = spawn(args, workload, args.seconds / 2, True)
    metrics = {name: statistics.median(row[name] for row in traced["layers"])
               for name in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = (statistics.median(pass_s(traced))
                                       / statistics.median(pass_s(plain)))
    notes = {name: "computed from the inputs" for name in COMPUTED}
    notes["trace.overhead_ratio"] = (f"traced {len(traced['op_ms'])} passes over "
                                     f"untraced {len(plain['op_ms'])} passes")
    # Each traced pass repeats its cross-checks; print each distinct one once.
    crosschecks = {json.dumps(c, sort_keys=True) for c in traced["crosschecks"]}
    return {"metrics": metrics, "notes": notes, "runs": [plain, traced],
            "crosschecks": sorted(crosschecks), "trace_file": traced["trace_file"]}


def report(workload: str | None, result: dict, units: dict) -> None:
    attempted = sum(run["attempted"] for run in result["runs"])
    failed = sum(run["failed"] for run in result["runs"])
    prefix = "" if workload is None else f"[{workload}] "
    for name, value in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"{prefix}{name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"{prefix}error_rate = {failed / attempted:.6g} share  ({failed} of {attempted} operations)")
    for run in result["runs"]:
        for failure in run["failures"]:
            print(f"{prefix}FAILED {failure}")
    for check in result.get("crosschecks", ()):
        print(f"{prefix}crosscheck {check}")
    if "trace_file" in result:
        print(f"{prefix}spans written to {result['trace_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs the smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpfree" / "__init__.py").is_file():
        print(f"perfbench: no gpfree sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment(), sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    measure = per_layer if args.trace else end_to_end
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            results[workload] = measure(args, workload)
            report(workload if len(names) > 1 else None, results[workload], units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runs = [run for result in results.values() for run in result["runs"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics, measured = {}, {}
    for workload, result in results.items():
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        for name, value in result.get("measured", {}).items():
            measured[prefix + name] = {"value": value, "unit": units[name]}
    if measured:
        # The scaled times' values as measured, beside the result that carries the scaled ones.
        print("# measured " + json.dumps(measured))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, run timed passes, check every output.

run.py starts this script with PYTHONPATH naming the checkout's src/
directory and reads the one JSON object it prints.  Set-up runs from
process start (the parent's --spawned-ns, on the shared monotonic
clock) through importing gpfree, generating inputs and one warm-up
call.  Then passes run until --seconds have gone by, at least one.
Each operation is timed on its own; its check runs after the clock
stops and, in a traced run, with the wrappers taken out.

The printed object holds set-up time and the median time of
SETUP_LOOPS calibration loops timed before gpfree is imported
(setup_loop_s),
each pass's operation times (op_ms, one list per pass) and, in an
untraced run, the mean calibration loop time during each pass (loop_s).
run.py scales the times by them.  It also
holds ru_maxrss at the end and how much of it was set while checking.
In a traced run a cross-check that disagrees counts as a failed
operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE_EVERY_S = 0.05
SETUP_LOOPS = 21


def calibration_loop() -> int:
    """Fixed pure-Python work: small-integer arithmetic, tuples, a set."""
    seen = set()
    acc = 0
    for i in range(1000):
        t = (i * 7 % 1013, i * 13 % 2039, i & 255, i >> 3)
        acc += t[0] * t[1] - t[2] * t[3]
        if (t[0] ^ t[1]) & 1:
            seen.add(t)
        acc ^= len(seen)
    return acc


def time_loop() -> float:
    """Seconds one calibration_loop takes, with the collector off.

    The loop frees what it allocates; with the collector off it cannot
    set off a collection whose cost belongs to the code around it.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    calibration_loop()
    t1 = time.perf_counter_ns()
    if collecting:
        gc.enable()
    return (t1 - t0) / 1e9


class SpeedSampler:
    """Times calibration_loop from a SIGALRM handler every SAMPLE_EVERY_S.

    On a shared host a VM's speed can swing by up to 2x within seconds,
    so samples are taken during the operations themselves.  Time spent in the handler
    is kept in spent_ns so that the operation timings can leave it out.
    """

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self.spent_ns = 0

    def _sample(self, signum, frame):
        loop_s = time_loop()
        self.samples.append((time.perf_counter_ns(), loop_s))
        self.spent_ns += round(loop_s * 1e9)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def loop_since(self, start_ns: int) -> float:
        """Harmonic mean of the loop times since start_ns, sampling once now if none fell in.

        Samples are evenly spaced in time and the work done in a span is
        the integral of the speed, so the mean speed is the one to take:
        it is also robust to a sample that was held up.
        """
        if not self.samples or self.samples[-1][0] < start_ns:
            self._sample(None, None)
        return statistics.harmonic_mean([s for t, s in self.samples if t >= start_ns])


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Set-up is scaled by loops timed before gpfree is imported, so that
    # nothing the library does can change them; their time is not set-up.
    loops = [time_loop() for _ in range(SETUP_LOOPS)]
    setup_loop_s = statistics.median(loops)
    import gpfree

    if Path(gpfree.__file__).resolve().parent != ROOT / "src" / "gpfree":
        raise SystemExit(f"imported gpfree from {gpfree.__file__}, not from {ROOT / 'src'}")
    import tracer as tracing
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](args.size, args.seed, reference, scratch)
    workload.warm_up()
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9 - sum(loops)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_loop_s": setup_loop_s}))
        return

    tracer = tracing.Tracer() if args.trace else None
    sampler = SpeedSampler()
    if not tracer:
        sampler.start()
    out = {"setup_s": setup_s, "setup_loop_s": setup_loop_s, "op_ms": [], "loop_s": [],
           "attempted": 0, "failed": 0, "failures": [], "layers": [], "crosschecks": [],
           "rss_set_in_checks_mb": 0.0}
    started = time.perf_counter()
    while True:
        ops = workload.plan_pass()
        first_span = len(tracer.spans) if tracer else 0
        counts_before = Counter(tracer.counts) if tracer else None
        pass_started = time.perf_counter_ns()
        pass_ops = []
        for label, call, check in ops:
            if tracer:
                tracer.install()
                call = tracer.span(f"op.{label}", call)
            spent = sampler.spent_ns
            t0 = time.perf_counter_ns()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - t0 - (sampler.spent_ns - spent)
            if tracer:
                tracer.uninstall()
            rss_before_check = max_rss_mb()
            if error is None:
                try:
                    error = check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            out["rss_set_in_checks_mb"] += max_rss_mb() - rss_before_check
            del result
            pass_ops.append(elapsed / 1e6)
            record(out, label, error)
        out["op_ms"].append(pass_ops)
        if not tracer:
            out["loop_s"].append(sampler.loop_since(pass_started))
        else:
            metrics, crosschecks = tracing.layer_metrics(
                tracer.spans, first_span, tracer.counts - counts_before, workload.bytes_out)
            out["layers"].append(metrics)
            out["crosschecks"].extend(crosschecks)
            for check in crosschecks:
                record(out, f"crosscheck {check['metric']}",
                       None if check["agrees"] else f"disagrees: {json.dumps(check)}")
        if time.perf_counter() - started >= args.seconds:
            break
    sampler.stop()
    out["peak_rss_mb"] = max_rss_mb()
    if tracer:
        path = scratch / f"trace-{args.workload}.tsv"
        with path.open("w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for row in tracer.rows():
                f.write("\t".join(map(str, row)) + "\n")
        out["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))


def record(out: dict, label: str, error: str | None) -> None:
    """Count one checked operation; keep the first few failures."""
    out["attempted"] += 1
    if error is not None:
        out["failed"] += 1
        if len(out["failures"]) < 5:
            out["failures"].append(f"{label}: {error}")


if __name__ == "__main__":
    main()

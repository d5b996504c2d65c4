"""Record the reference outputs every benchmark run is checked against.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record.py

It writes perfbench/reference.json: for each workload and size, a
digest of the set of the greedy's kept coordinates and its counts, of each
euler-tables result, and of the result of every query in the fixed pool.
Re-recording is only right when an output is meant to change.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

from run import ROOT, head_commit
from workloads import (SIZES, cli_result, digest, euler_calls, kept_digest,
                       query_pool, run_query)

import gpfree.greedy as greedy


def record(size: dict, scratch: Path) -> dict:
    report = greedy.build_greedy(size["greedy_max_norm"])
    out = {"greedy-shells": {
        "kept_digest": kept_digest(report),
        "included": len(report.included),
        "excluded": len(report.excluded),
    }}
    out["euler-tables"] = {
        name: digest(call() if canon is None else canon(call()))
        for name, (call, canon) in euler_calls(size).items()
    }
    queries = {}
    path = scratch / "record.out"
    for kind, items in query_pool(size).items():
        if kind == "cli":
            queries[kind] = [digest(cli_result(run_query(kind, args, path), path)) for args in items]
        else:
            queries[kind] = [digest(run_query(kind, args)) for args in items]
    path.unlink(missing_ok=True)
    out["queries"] = queries
    return out


def main() -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    by_size = {name: record(size, scratch) for name, size in SIZES.items()}
    reference = {
        "recorded_at": {"commit": head_commit(), "python": platform.python_version()},
    }
    for workload in ("greedy-shells", "euler-tables", "queries"):
        reference[workload] = {name: by_size[name][workload] for name in SIZES}
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Pin the outputs of every variant of every workload slot into ``golden.json``.

Run from the root of a checkout, at the commit whose outputs are the
reference (the benchmark then checks every later commit against them):

    python3 bench/make_golden.py

The CLI slots are run in-process through ``cli.run_scenario``; the benchmark
itself runs them as ``simplexdyn simulate`` subprocesses, which must write
the same bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import simplexdyn as sd  # noqa: E402
import simplexdyn.cli  # noqa: E402,F401

import workloads as wl  # noqa: E402


def main() -> int:
    run_dir = os.path.join(ROOT, ".bench_run", "golden")
    golden = {}
    try:
        for workload in wl.WORKLOADS:
            table = golden[workload] = {}
            for variant in range(wl.VARIANTS):
                cases = [f"{slot}.v{variant}" for slot in wl.slots(workload)]
                ops = wl.build_ops(sd, workload, cases, run_dir, sys.executable, dict(os.environ),
                                   in_process=True)
                for op in ops:
                    record = op.record(wl.run_op(op))
                    if workload == "cli_scenarios":
                        table.update(record)
                    else:
                        table[op.case] = record
            print(f"{workload}: {len(table)} cases pinned", file=sys.stderr)
    finally:
        shutil.rmtree(os.path.dirname(run_dir), ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""simplexdyn benchmark: one workload, a fixed time, checked outputs, one JSON line.

Run from the root of a checkout (the package is imported from ``src/``, as
Tier-1 does; nothing is installed):

    python3 bench/run.py --workload long_flows --seed 1 --seconds 30 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a separate traced run gives the per-layer metrics and writes
its spans under ``.bench_out/``.  The exit code is 0 only when every output
matched its pinned reference.

Set-up time is measured from outside: the workload process is started
``SETUPS`` times with ``--setup-only``, and each time the clock runs from
the start of the fresh interpreter to its ``READY`` line (after ``import
simplexdyn`` and input generation).  Each start is bracketed by the
fresh-interpreter calibration reading and scaled like every other timing
(see ``calibration.py``).  One more start then runs the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibration

SETUPS = 5
#: The workload process is killed if it runs this long past ``--seconds``.
GRACE_SECONDS = 120


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "simplexdyn", "__init__.py")):
        return fail("run from the root of a simplexdyn checkout (src/simplexdyn is missing)")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    command = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                            "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    starts = 1 if args.trace else SETUPS + 1  # a traced run reports no set-up time
    readings = [] if args.trace else [calibration.spawn_seconds(sys.executable)]
    for k in range(starts):
        last = k == starts - 1
        start = time.perf_counter()
        proc = subprocess.Popen(command + ([] if last else ["--setup-only"]),
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            if ready != "READY":
                proc.wait()
                return fail(f"workload process failed during set-up (exit {proc.returncode})")
            if not last:
                proc.wait(timeout=GRACE_SECONDS)
                readings.append(calibration.spawn_seconds(sys.executable))
                setups.append(calibration.scaled(elapsed, readings[-2], readings[-1],
                                                 calibration.REFERENCE_SPAWN_S))
                continue
            out, _ = proc.communicate(timeout=args.seconds + GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return fail("workload process timed out")
        finally:
            proc.stdout.close()

    lines = out.strip().splitlines()
    if not lines:
        return fail(f"workload process printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(units):
        return fail(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    print(json.dumps({
        "correct": result["failed"] == 0 and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if result["failed"] == 0 and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

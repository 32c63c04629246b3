"""One workload process: set up, run the workload for a fixed time, check, report.

Started by ``run.py`` from the root of a checkout; see that file for the
command line.  Prints ``READY`` once set-up is done (the fresh interpreter,
``import simplexdyn`` and input generation), then, unless ``--setup-only``,
one JSON line with the counts and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import simplexdyn as sd  # noqa: E402
import simplexdyn.cli  # noqa: E402,F401  (binds sd.cli)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
#: Steps per run in the trace-only probes of the workloads not under test.
PROBE_STEPS = 300
#: About how long one pass takes, in seconds, on a 2-core Xeon VM.  A run
#: makes ``round(seconds / PASS_SECONDS)`` whole passes (at least one), so
#: every run of a workload has the same mix and number of operations and
#: the latency percentiles always cover the same samples.
PASS_SECONDS = {"cli_scenarios": 15.0, "long_flows": 1.75, "ensemble_checks": 1.5}
def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version}


class Runner:
    """Runs ops in pass order, times each, checks each output against the golden file.

    ``times`` holds the raw seconds.  ``scaled`` holds the same samples times
    ``reference`` over the calibration reading, taken as the mean of the
    readings just before and just after the op.  The machine this runs on
    drifts between speed phases, seconds to minutes long, that differ up to
    twofold; the scaled times cancel the phase and keep what the code under
    test changes.  ``calibrate`` must run in the same kind of process as the
    ops: in process, or a fresh interpreter for the `simulate` calls.
    """

    def __init__(self, workload: str, ops: list, golden: dict,
                 calibrate=calibration.kernel_us, reference: float = calibration.REFERENCE_US):
        self.workload = workload
        self.ops = ops
        self.golden = golden
        self.calibrate = calibrate
        self.reference = reference
        self.times = [[] for _ in ops]
        self.scaled = [[] for _ in ops]
        self.steps_done = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.calibration: list = []
        self.order: list = []  # [case, raw seconds] in the order run
        self.tracer = None

    def run(self, index: int) -> float:
        op = self.ops[index]
        if self.tracer is not None:
            self.tracer.current_op = index
        t0 = time.perf_counter()
        result = wl.run_op(op)
        elapsed = time.perf_counter() - t0
        self.times[index].append(elapsed)
        self.attempted += 1
        record = op.record(result)
        ref = wl.reference_for(self.workload, op, record, self.golden)
        errors = ["no reference pinned"] if ref is None else wl.compare(ref, record)
        if errors:
            self.failed += 1
            self.errors.append(f"{op.case}: " + "; ".join(errors[:3]))
        else:
            self.steps_done[index].append(_steps_done(self.workload, record, ref))
        return elapsed

    def loop(self, passes: int) -> None:
        """Run ``passes`` whole passes, each op bracketed by calibration readings."""
        self.calibration.append(self.calibrate())
        for _ in range(passes):
            for index in range(len(self.ops)):
                elapsed = self.run(index)
                self.calibration.append(self.calibrate())
                self.scaled[index].append(calibration.scaled(
                    elapsed, self.calibration[-2], self.calibration[-1], self.reference))
                self.order.append([self.ops[index].case, elapsed])

    def save(self, path: str) -> None:
        """Write the ops in the order run, with raw seconds, and the calibration readings.

        ``calibration[i]`` and ``calibration[i + 1]`` bracket the i-th op run.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"runs": self.order, "calibration": self.calibration}, fh)


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def pass_seconds(times: list) -> float:
    """One pass, estimated as the sum over ops of each op's median time."""
    return float(sum(statistics.median(t) for t in times if t))


def _steps_done(workload: str, record: dict, ref: dict) -> int:
    if workload == "cli_scenarios":
        return sum(ref[case].get("steps_done", 0) for case in ref if case != "exit")
    return int(record.get("steps_done", 0))


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(runner: Runner) -> dict:
    """The end-to-end metrics from the scaled times of a run."""
    samples = [t for times in runner.scaled for t in times]
    step_group = {"cli_scenarios": "simulate", "long_flows": "flow",
                  "ensemble_checks": "trajectory"}[runner.workload]
    step_time = step_count = 0.0
    for op, times, steps in zip(runner.ops, runner.scaled, runner.steps_done):
        if op.group == step_group:
            step_time += sum(times)
            step_count += sum(steps)
    tail_value, tail_pct = tail(samples)
    print(f"op_ms.tail is p{tail_pct:.1f} of {len(samples)} samples", file=sys.stderr)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": pass_seconds(runner.scaled),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "op_ms.p50": statistics.median(samples) * 1e3,
        "op_ms.tail": tail_value * 1e3,
        "step_us": step_time / step_count * 1e6,
    }


def traced_run(args, ops, golden, run_dir, env) -> tuple:
    """Untraced passes for about ``seconds / 2``, then one traced pass and the probes.

    Both passes are scaled by the calibration kernel, so the overhead is not
    a machine phase; the kernel calls no traced name.
    """
    untraced = Runner(args.workload, ops, golden)
    untraced.loop(passes(args.workload, args.seconds / 2.0))
    tracer = tracing.Tracer()
    tracing.install(tracer, sd, wl.CustomPayoff)
    traced = Runner(args.workload, ops, golden)
    traced.tracer = tracer
    try:
        traced.loop(1)
        # The other workloads' ops, shortened and unchecked, give the rates of
        # layers this workload does not reach.
        probes = []
        for other in wl.WORKLOADS:
            if other != args.workload:
                cases = wl.pick_variants(args.seed, wl.slots(other))
                probes += wl.build_ops(sd, other, cases, os.path.join(run_dir, "probe"),
                                       sys.executable, env, PROBE_STEPS, in_process=True)
        for j, op in enumerate(probes):
            tracer.current_op = len(ops) + j
            wl.run_op(op)
    finally:
        tracer.restore()
    spans = tracer.spans()
    own = tracing.layer_metrics(spans.subset(spans.op < len(ops)))
    probed = tracing.layer_metrics(spans.subset(spans.op >= len(ops)))
    metrics = {name: value if value is not None or name in tracing.COUNTS else probed[name]
               for name, value in own.items()}
    for name in tracing.absent_metrics(metrics, tracer.missing):
        metrics[name] = None
    metrics.update(tracing.import_times(sys.executable, env))
    untraced_s = pass_seconds(untraced.scaled)
    metrics["trace.overhead_s"] = pass_seconds(traced.scaled) - untraced_s
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_s
    q = statistics.quantiles(untraced.calibration, n=4)
    metrics["machine.calib_us"] = q[1]
    metrics["machine.calib_iqr_share"] = (q[2] - q[0]) / q[1]
    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}")
    tracer.save(out + "-spans.npz")
    with open(out + "-trace.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "from_probes": sorted(
            k for k in metrics if own.get(k) is None and k in probed and probed[k] is not None),
            "absent": sorted(tracer.missing), "machine": machine_facts()}, fh, indent=1)
    runner = untraced
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    runner.errors += traced.errors
    return runner, metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(sd.__file__).startswith(src + os.sep):
        print(f"simplexdyn was imported from {sd.__file__}, not from {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run_dir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    try:
        cases = wl.pick_variants(args.seed, wl.slots(args.workload))
        ops = wl.build_ops(sd, args.workload, cases, run_dir, sys.executable, env,
                           in_process=bool(args.trace))
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            runner, metrics = traced_run(args, ops, golden, run_dir, env)
        else:
            if args.workload == "cli_scenarios":
                runner = Runner(args.workload, ops, golden,
                                lambda: calibration.spawn_seconds(sys.executable),
                                calibration.REFERENCE_SPAWN_S)
            else:
                runner = Runner(args.workload, ops, golden)
            runner.loop(passes(args.workload, args.seconds))
            metrics = end_to_end(runner)
            runner.save(os.path.join(ROOT, ".bench_out",
                                     f"{args.workload}-seed{args.seed}-samples.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    if runner.calibration:
        cal = runner.calibration
        print(f"calibration: {len(cal)} readings, median {statistics.median(cal):.4g}, "
              f"min {min(cal):.4g}, max {max(cal):.4g}", file=sys.stderr)
    print(json.dumps({"machine": machine_facts()}), file=sys.stderr)
    for error in runner.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}), flush=True)
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself (not of simplexdyn).

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import simplexdyn as sd  # noqa: E402
import simplexdyn.cli  # noqa: E402,F401

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_per_layer_names_match_the_tracer():
    metrics = tracing.layer_metrics(tracing.Tracer().spans())
    extra = ["import.total_s", "import.scipy_s", "import.numpy_s", "trace.overhead_s",
             "trace.overhead_share", "machine.calib_us", "machine.calib_iqr_share"]
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(list(metrics) + extra)


def test_inputs_are_a_function_of_the_seed():
    for workload in wl.WORKLOADS:
        slots = wl.slots(workload)
        assert wl.pick_variants(7, slots) == wl.pick_variants(7, slots)
        assert all(int(c.rsplit(".v", 1)[1]) < wl.VARIANTS for c in wl.pick_variants(7, slots))
    assert wl.pick_variants(1, wl.slots("long_flows")) != wl.pick_variants(2, wl.slots("long_flows"))
    assert wl.cli_config("c05.v2") == wl.cli_config("c05.v2")
    a = wl.flow_inputs(sd, "rep.lin.n10.v1")
    b = wl.flow_inputs(sd, "rep.lin.n10.v1")
    np.testing.assert_array_equal(a[0].f.matrix, b[0].f.matrix)
    np.testing.assert_array_equal(a[1].coords, b[1].coords)


def test_every_variant_has_a_reference():
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    for workload in ("long_flows", "ensemble_checks"):
        expected = {f"{s}.v{v}" for s in wl.slots(workload) for v in range(wl.VARIANTS)}
        if workload == "long_flows":
            expected |= {f"{c}.direct" for c in expected if c.split(".")[0] in ("xf", "cxf")}
        assert set(golden[workload]) == expected
    generated = {f"{s[0]}.v{v}" for s in wl.CLI_SLOTS for v in range(wl.VARIANTS)}
    assert set(golden["cli_scenarios"]) == generated | set(wl.BUNDLED)


def test_compare_follows_the_pinned_keys():
    ref = {"verdict": True, "value": 1.0, "failure": "positivity lost at step 13 (t = 1.3)"}
    assert wl.compare(ref, {**ref, "numerics": {"drift": 1e-17}}) == []
    assert wl.compare(ref, {**ref, "failure": "non_finite at step 13, value nan"}) == []
    assert wl.compare(ref, {**ref, "value": 1.0 + 1e-12}) == []
    assert wl.compare(ref, {**ref, "failure": "non_finite at step 12"})
    assert wl.compare(ref, {**ref, "verdict": False})
    assert wl.compare(ref, {**ref, "value": 1.001})
    assert wl.compare(ref, {"verdict": True, "failure": ref["failure"]})


def test_a_name_the_package_lacks_is_skipped_and_its_metrics_absent():
    tracer = tracing.Tracer()

    class Module:
        pass

    tracer.patch(Module, "logsumexp", "dynamics.logsumexp")
    assert tracer.missing == {"dynamics.logsumexp"}
    names = ["dynamics.logsumexp.calls", "dynamics.logsumexp.share", "core.payoff.calls"]
    assert tracing.absent_metrics(names, tracer.missing) == set(names[:2])


def test_a_wrong_output_counts_as_failed():
    ops = wl.build_ops(sd, "ensemble_checks", wl.pick_variants(0, wl.slots("ensemble_checks")),
                       "", sys.executable, {}, steps_cap=20)
    ref = wl.reference_for("ensemble_checks", ops[0], {}, {"ensemble_checks": {}})
    assert ref is None  # an unpinned case cannot pass
    record = ops[0].record(wl.run_op(ops[0]))
    assert wl.compare({**record, "monotone": not record["monotone"]}, record)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_pass_of_each_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "ensemble_checks", "--seed", "5", "--seconds", "0", "--trace", "1")
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"] for name in tracing.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["dynamics.rhs_evals"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "long_flows", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

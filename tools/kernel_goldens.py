"""The pinned-output tests under each OpenBLAS kernel, as one JSON line.

Run from anywhere, with pytest node ids or none:

    python3 tools/kernel_goldens.py [NODE_ID ...]

The pins record the rounding of one BLAS kernel.  For each kernel (the
default, then ``OPENBLAS_CORETYPE=Haswell`` and ``Prescott``) this runs the
given tests in one pytest child process, from the root of the checkout with
its ``src`` on ``PYTHONPATH``.  The variable is set only in that child's
environment (and removed from the default child's).  It prints one JSON
object: per kernel, the passed count and the ids of the tests that failed or
errored.  It exits 1 when a child does not finish as pytest does after a run
(exit code 0 or 1), else 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = (None, "Haswell", "Prescott")
DEFAULT_IDS = (
    "tests/test_golden_outputs.py",
    "tests/test_cli.py::test_check_gradient_that_overflows_is_quiet_strict_json_and_exits_2",
    "tests/test_certificates.py::"
    "test_gradient_check_reads_a_nan_defect_as_a_nan_residual_and_refuses_a_nan_gradient",
    "tests/test_analysis.py::"
    "test_denormalized_ess_whose_terms_overflow_at_finite_totals_reads_the_frequencies",
    # the RK4 step's bits against the float-scalar reference loop
    "tests/test_certificates.py::test_every_run_equals_the_loop_with_a_payoff_dispatch_per_call",
    "tests/test_certificates.py::test_blow_ups_truncate_as_before_without_warnings",
    # a payoff into the caller's ``out``, and the record that grows in chunks
    "tests/test_certificates.py::test_a_payoff_writes_into_out_the_bits_it_returns_without_one",
    "tests/test_certificates.py::test_a_run_of_a_trillion_steps_that_blows_up_holds_only_its_rows",
    "tests/test_certificates.py::"
    "test_a_run_one_step_longer_than_the_first_record_chunk_equals_the_loop",
    "tests/test_certificates.py::"
    "test_a_payoff_that_keeps_its_inputs_across_the_records_growth_sees_none_overwritten",
    # the exp-family chart: its normalizer cuts and one chart per stage after the first
    "tests/test_certificates.py::test_exp_family_blow_ups_truncate_as_before_without_warnings",
    "tests/test_dynamics.py::"
    "test_an_exp_family_run_whose_rows_leave_the_simplex_truncates_naming_the_normalizer",
    "tests/test_certificates.py::test_an_exp_family_step_charts_four_times_per_population",
    # configs nobody wrote, through simulate
    "tests/test_cli.py::"
    "test_a_config_with_mutated_leaves_runs_or_refuses_without_raising_or_warning",
)


def run_kernel(kernel, ids: list) -> tuple[int, dict]:
    """pytest's exit code on ``ids`` under ``kernel``, and its passed count and failing ids."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *ids], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    passed = re.search(r"(\d+) passed", lines[-1]) if lines else None
    return proc.returncode, {"passed": int(passed.group(1)) if passed else 0, "failed": failed}


def main() -> int:
    ids = sys.argv[1:] or list(DEFAULT_IDS)
    report, ok = {}, True
    for kernel in KERNELS:
        code, report[kernel or "default"] = run_kernel(kernel, ids)
        ok = ok and code in (0, 1)
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

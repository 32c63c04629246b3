"""The pinned-output tests under each OpenBLAS kernel, as one JSON line.

Run from anywhere, with pytest node ids or none:

    python3 tools/kernel_goldens.py [NODE_ID ...]

The pins record the rounding of one BLAS kernel.  For each kernel (the
default, then ``OPENBLAS_CORETYPE=Haswell`` and ``Prescott``) this runs the
given tests, or with none every test marked ``kernel_pinned``, in one pytest
child process, from the root of the checkout with its ``src`` on
``PYTHONPATH``.  The variable is set only in that child's environment (and
removed from the default child's).  It prints one JSON object: per kernel,
the passed count and the ids of the tests that failed or errored.  It is a
gate: it exits 1 when a test fails or errors under any kernel, or when a
child does not finish as pytest does after a run (exit code 0 or 1), else 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = (None, "Haswell", "Prescott")
def run_kernel(kernel, args: list) -> tuple[int, dict]:
    """pytest's exit code on ``args`` under ``kernel``, and its passed count and failing ids."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *args], cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    passed = re.search(r"(\d+) passed", lines[-1]) if lines else None
    return proc.returncode, {"passed": int(passed.group(1)) if passed else 0, "failed": failed}


def main() -> int:
    args = sys.argv[1:] or ["-m", "kernel_pinned"]
    report, ok = {}, True
    for kernel in KERNELS:
        code, result = run_kernel(kernel, args)
        report[kernel or "default"] = result
        ok = ok and code == 0 and not result["failed"]
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

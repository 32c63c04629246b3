"""Golden outputs of the bundled scenarios.

``simulate`` on ``scenarios/*.json`` must write the same bytes on every
run, on every change that does not mean to move a number.  Each trajectory
file is pinned by its SHA-256.  Each report is compared exactly on the keys
pinned here; keys a report gains later pass, so new report fields need no
re-pinning.
"""

import hashlib
import json
from pathlib import Path

import pytest

from simplexdyn.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRAJECTORY_SHA256 = {
    ("csv", "hawk_dove_trajectory.csv"):
        "c4e65f4e95859c0d3dbcc576ea30ad5f3739416f5c4b8a42f56ca6ea96731e44",
    ("csv", "rps_trajectory.csv"):
        "ae1f1c9cb40360b68cdb717489cc726553c827fcd417b64b1399dc793617df61",
    ("json", "hawk_dove_trajectory.json"):
        "7a121db28a81062557bf0235423c0952bf94f9948f64b1a2cac0b3c8c71ab1d3",
    ("json", "rps_trajectory.json"):
        "f973fe99608d5ae828bfdb0bc37f74ed93309e48393641972fca96b689df06d0",
}

REPORTS = {
    "hawk_dove_report.json": {
        "scenario": "hawk_dove",
        "checks": [
            {
                "name": "lyapunov",
                "pass": True,
                "metrics": {
                    "monotone": True,
                    "max_increase": 1.6653345369377348e-16,
                    "initial_value": 0.5108256237659905,
                    "final_value": 5.551115123125783e-17,
                    "drift": -0.5108256237659905,
                    "converged": True,
                },
            },
            {
                "name": "ess",
                "pass": True,
                "metrics": {
                    "is_ess": True,
                    "min_margin": 3.1147678697385217e-07,
                    "samples_tested": 1000,
                    "radius": 0.2,
                    "indeterminate": 0,
                },
            },
            {
                "name": "gradient_consistency",
                "pass": True,
                "metrics": {"residual": 1.1102230246251565e-16, "tol": 1e-10, "probes": 100},
            },
            {
                "name": "localize",
                "pass": True,
                "metrics": {
                    "diag": [2.000002666673138, 2.000002666673138],
                    "sign": -1,
                    "max_offdiag": 5.421010862427522e-14,
                    "max_error": 2.6666731378632846e-06,
                    "tol": 0.0001,
                },
            },
        ],
        "truncated": False,
    },
    "rps_report.json": {
        "scenario": "rps_conservation",
        "checks": [
            {
                "name": "lyapunov",
                "pass": True,
                "metrics": {
                    "monotone": True,
                    "max_increase": 3.885780586188048e-16,
                    "initial_value": 0.05663301226513234,
                    "final_value": 0.056633012265129554,
                    "drift": -2.789435349370706e-15,
                    "converged": False,
                },
            },
            {
                "name": "ess",
                "pass": True,
                "metrics": {
                    "is_ess": False,
                    "min_margin": -9.160067824129222e-18,
                    "samples_tested": 500,
                    "radius": 0.1,
                    "indeterminate": 500,
                },
            },
        ],
        "truncated": False,
    },
}


def _mismatches(expected, got, path="report"):
    """Paths where ``got`` differs from ``expected``; keys only in ``got`` pass."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        out = []
        for key, value in expected.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += _mismatches(value, got[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{path}: expected {len(expected)} entries, got {got!r}"]
        return [m for k, (e, g) in enumerate(zip(expected, got))
                for m in _mismatches(e, g, f"{path}[{k}]")]
    if type(got) is not type(expected) or got != expected:
        return [f"{path}: expected {expected!r}, got {got!r}"]
    return []


@pytest.fixture(scope="module", params=["csv", "json"])
def simulated(request, tmp_path_factory):
    fmt = request.param
    out = tmp_path_factory.mktemp(f"golden_{fmt}")
    configs = sorted(str(p) for p in SCENARIOS.glob("*.json"))
    code = main(["simulate", "--config", *configs, "--out", str(out), "--format", fmt, "--quiet"])
    return fmt, out, code


def test_bundled_scenarios_exit_0(simulated):
    assert simulated[2] == 0


def test_trajectory_bytes_match_pinned_hashes(simulated):
    fmt, out, _ = simulated
    for (pinned_fmt, name), digest in TRAJECTORY_SHA256.items():
        if pinned_fmt == fmt:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_reports_match_pinned_values(simulated):
    _, out, _ = simulated
    for name, expected in REPORTS.items():
        got = json.loads((out / name).read_text())
        assert _mismatches(expected, got) == [], name

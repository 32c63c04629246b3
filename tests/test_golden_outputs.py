"""Golden outputs of the bundled scenarios.

``simulate`` on ``scenarios/*.json`` must write the same bytes on every
run, on every change that does not mean to move a number.  Each trajectory
file and each report is pinned by its SHA-256.  Each report is also compared
exactly on the values pinned here, so a report whose bytes move names the
values that moved; keys a report gains pass that comparison.

The bits depend on the OpenBLAS kernel, so each pin is recorded per kernel
(SkylakeX, Haswell, Prescott; see ``tests/conftest.py``) and a test reads the
pins of the kernel its process rounds with, the ``blas_kernel`` fixture.
"""

import copy
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from simplexdyn.cli import main

pytestmark = pytest.mark.kernel_pinned

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRAJECTORY_SHA256 = {
    "SkylakeX": {
        ("csv", "hawk_dove_trajectory.csv"):
            "c4e65f4e95859c0d3dbcc576ea30ad5f3739416f5c4b8a42f56ca6ea96731e44",
        ("csv", "rps_trajectory.csv"):
            "ae1f1c9cb40360b68cdb717489cc726553c827fcd417b64b1399dc793617df61",
        ("json", "hawk_dove_trajectory.json"):
            "7a121db28a81062557bf0235423c0952bf94f9948f64b1a2cac0b3c8c71ab1d3",
        ("json", "rps_trajectory.json"):
            "f973fe99608d5ae828bfdb0bc37f74ed93309e48393641972fca96b689df06d0",
    },
    "Haswell": {
        ("csv", "hawk_dove_trajectory.csv"):
            "3f45298cabb6b010398dc41b0e3af2037668977829b71c730f9fcfebfb536a77",
        ("csv", "rps_trajectory.csv"):
            "bc5d39da341dfb75fe479e7a7c517273a0108b6b8a201745c85035642cf9951e",
        ("json", "hawk_dove_trajectory.json"):
            "85e593470a0f05e2cb357840b436346a3ab6a006fb368c0ffa47ce3ddcb74a88",
        ("json", "rps_trajectory.json"):
            "6bdceafcb457f0475c8c9d75156986c553589dc3105d521c2e6eeaaf2a200c72",
    },
    "Prescott": {
        ("csv", "hawk_dove_trajectory.csv"):
            "3f45298cabb6b010398dc41b0e3af2037668977829b71c730f9fcfebfb536a77",
        ("csv", "rps_trajectory.csv"):
            "0387f0dc9d21dfb5470c4d6f2a92dfc5d44a9eb6ce6fc1f3779faa4c71893d44",
        ("json", "hawk_dove_trajectory.json"):
            "85e593470a0f05e2cb357840b436346a3ab6a006fb368c0ffa47ce3ddcb74a88",
        ("json", "rps_trajectory.json"):
            "42fc535cb9a719944f1a2888a74d8bcc020346ea4d51832fbaed886d0594cfbe",
    },
}

# the same bytes under --format csv and json
REPORT_SHA256 = {
    "SkylakeX": {
        "hawk_dove_report.json":
            "8eb8acfdfca7099ee5978af63e15f752db22ff3ad2cab10262aec8b996e2951d",
        "rps_report.json": "5e039be159163a2ba9497b9588e4057c6744c5ebd31cdc826245de4441700302",
    },
    "Prescott": {
        "hawk_dove_report.json":
            "8eb8acfdfca7099ee5978af63e15f752db22ff3ad2cab10262aec8b996e2951d",
        "rps_report.json": "51335c3128dee28489a5caf5238a66704566656e026bc360723a63a1652d81e3",
    },
}
REPORT_SHA256["Haswell"] = REPORT_SHA256["SkylakeX"]


def _moved(reports: dict, moves: dict) -> dict:
    """A copy of ``reports``, each (report, check index, metric) of ``moves`` set to its value."""
    reports = copy.deepcopy(reports)
    for (name, check, metric), value in moves.items():
        reports[name]["checks"][check]["metrics"][metric] = value
    return reports


SKYLAKEX_REPORTS = {
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
REPORTS = {
    "SkylakeX": SKYLAKEX_REPORTS,
    "Haswell": SKYLAKEX_REPORTS,
    "Prescott": _moved(SKYLAKEX_REPORTS,
                       {("rps_report.json", 1, "min_margin"): -8.673617379884035e-18}),
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


def test_trajectory_bytes_match_pinned_hashes(simulated, blas_kernel):
    fmt, out, _ = simulated
    for (pinned_fmt, name), digest in TRAJECTORY_SHA256[blas_kernel].items():
        if pinned_fmt == fmt:
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_report_bytes_match_pinned_hashes(simulated, blas_kernel):
    _, out, _ = simulated
    for name, digest in REPORT_SHA256[blas_kernel].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_reports_match_pinned_values(simulated, blas_kernel):
    _, out, _ = simulated
    for name, expected in REPORTS[blas_kernel].items():
        got = json.loads((out / name).read_text())
        assert _mismatches(expected, got) == [], name


# Inline configs for the paths the bundled scenarios do not reach: two
# population blocks of different sizes, and the two abundance flows with a
# log-linear payoff, each with its Lyapunov and stability checks.
COUPLED_CONFIG = {
    "name": "coupled_blocks",
    "kind": "coupled_replicator",
    "landscape": {
        "f": {"type": "linear", "matrix": [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]},
        "g": {"type": "linear", "matrix": [[-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]},
    },
    "initial_state": {"p": [0.7, 0.3], "q": [0.2, 0.5, 0.3]},
    "target": {"p": [0.5, 0.5], "q": ["1/3", "1/3", "1/3"]},
    "dt": 0.01,
    "steps": 2000,
    "checks": [
        {"name": "lyapunov", "max_drift": 1e-9},
        {"name": "coupled_ess", "expect": False, "radius": 0.05, "samples": 200, "seed": 5},
    ],
}

LV_CONFIG = {
    "name": "lv_log_linear",
    "kind": "lotka_volterra",
    "landscape": {
        "type": "log_linear",
        "matrix": [[-1.0, -0.2, 0.0], [0.0, -1.0, -0.2], [-0.2, 0.0, -1.0]],
        "offset": [0.1, 0.2, 0.3],
    },
    "initial_state": [0.5, 2.0, 1.0],
    # the interior rest point exp(-M^-1 offset)
    "target": [1.0740414307162958, 1.1535649948951077, 1.33071219744735],
    "dt": 0.01,
    "steps": 1500,
    "checks": [
        {"name": "lyapunov"},
        {"name": "denorm_ess", "radius": 0.1, "samples": 200, "seed": 9},
    ],
}

SHIFTED_LV_CONFIG = {
    "name": "shifted_lv",
    "kind": "shifted_lotka_volterra",
    "landscape": {
        "type": "log_linear",
        "matrix": [[-1.2, 0.3, -0.1], [-0.2, -0.9, 0.1], [0.1, -0.3, -1.1]],
        "offset": [0.4, -0.1, 0.2],
    },
    "initial_state": [2.0, 0.5, 1.5],
    # the interior rest point exp(-M^-1 offset)
    "target": [1.3185039146868054, 0.8648827846370318, 1.2795952011361453],
    "dt": 0.02,
    "steps": 1200,
    "checks": [
        {"name": "lyapunov"},
        # the non-symmetric interaction leaves a negative denormalized margin
        {"name": "denorm_ess", "radius": 0.2, "samples": 250, "seed": 11, "expect": False},
    ],
}

INLINE_TRAJECTORY_SHA256 = {
    "SkylakeX": {
        ("coupled_blocks", "csv"):
            "0760759c6d62dc9e44fc8656b35f7fa9b0f22374bfbe4ae67108a82412169d84",
        ("coupled_blocks", "json"):
            "8e2cd89f97483dc0a707b3f73173cfb29506e47ea48b6e63059e6c407acafac9",
        ("lv_log_linear", "csv"):
            "ac9af31df51759be1a31a399155a1307a03b9c06a37b3149f03ba60d69b75868",
        ("lv_log_linear", "json"):
            "c29b00a711c95f6b066f4fafbef143e40d9e2c1f04b1a87c64f21153a3a19458",
        ("shifted_lv", "csv"): "5061aac0cd80627cbb1821361736523a5c1d29a0c471f32d63618572a32d47b0",
        ("shifted_lv", "json"): "4ee0073fc9e4760a9b2be77d1aee1cf32ef5fc1412641c8f31d77ad4af2b9f86",
    },
    "Prescott": {
        ("coupled_blocks", "csv"):
            "2cc997f2d21ec6ada7b9906ecc8d7bc678435c4a50ce3cf1b72d8e5085dc49e6",
        ("coupled_blocks", "json"):
            "500cfb3471c88455c70dbd83ee8166ab702703e98c0d2c6ef534fa69d40a9270",
        ("lv_log_linear", "csv"):
            "f83009e8527cd1b005b7a96740c588a44acf58e674da3bc11fc5cf214bb47a4d",
        ("lv_log_linear", "json"):
            "f1cfc5911ff3b99060157265954591575ed552aaea55484627632b734d8d4adb",
        ("shifted_lv", "csv"): "90cb575f538c3e11cb0a0a077ed3540a20e804eb8b7d8fc92f81cec9e5cfb1df",
        ("shifted_lv", "json"): "7568d8e9d33d7bf313cd6991c7662d04e6ba9905b36cd0a7514243fd976e1590",
    },
}
# Haswell keeps SkylakeX's Lotka-Volterra bytes: only its coupled states differ
INLINE_TRAJECTORY_SHA256["Haswell"] = {
    **INLINE_TRAJECTORY_SHA256["SkylakeX"],
    ("coupled_blocks", "csv"): "c2928a2df54fb6c96f6441d704ddb516a7d113a7519b3c0dc49ae0bd54edf863",
    ("coupled_blocks", "json"): "167da685b03a135f73c4c246674a63e7deb79c12b8563193be9b4cd9b03445eb",
}

SKYLAKEX_INLINE_REPORTS = {
    "coupled_blocks": {
        "scenario": "coupled_blocks",
        "checks": [
            {
                "name": "lyapunov",
                "pass": True,
                "metrics": {
                    "monotone": True,
                    "max_increase": 9.678369217169802e-14,
                    "initial_value": 0.1574170373442731,
                    "final_value": 0.15741703734087067,
                    "drift": -3.4024172368418704e-12,
                    "converged": False,
                },
            },
            {
                "name": "coupled_ess",
                "pass": True,
                "metrics": {
                    "is_ess": False,
                    "min_margin": -4.336808689942018e-18,
                    "samples_tested": 200,
                    "radius": 0.05,
                    "indeterminate": 200,
                },
            },
        ],
        "truncated": False,
    },
    "lv_log_linear": {
        "scenario": "lv_log_linear",
        "checks": [
            {
                "name": "lyapunov",
                "pass": True,
                "metrics": {
                    "monotone": True,
                    "max_increase": 0.0,
                    "initial_value": 0.14270570909604127,
                    "final_value": 2.793389278522061e-13,
                    "drift": -0.14270570909576194,
                    "converged": True,
                    "parallel_before_convergence": 0,
                },
            },
            {
                "name": "denorm_ess",
                "pass": True,
                "metrics": {
                    "is_ess": True,
                    "min_margin": 3.7287701537408457e-06,
                    "samples_tested": 200,
                    "radius": 0.1,
                    "indeterminate": 0,
                    "parallel_samples": 0,
                },
            },
        ],
        "truncated": False,
    },
    "shifted_lv": {
        "scenario": "shifted_lv",
        "checks": [
            {
                "name": "lyapunov",
                "pass": True,
                "metrics": {
                    "monotone": True,
                    "max_increase": 0.0,
                    "initial_value": 0.06366566754814239,
                    "final_value": 1.6441801727631834e-07,
                    "drift": -0.06366550313012512,
                    "converged": True,
                    "parallel_before_convergence": 0,
                },
            },
            {
                "name": "denorm_ess",
                "pass": True,
                "metrics": {
                    "is_ess": False,
                    "min_margin": -2.112749127346214e-05,
                    "samples_tested": 250,
                    "radius": 0.2,
                    "indeterminate": 0,
                    "parallel_samples": 0,
                },
            },
        ],
        "truncated": False,
    },
}
# both non-FMA kernels' coupled states differ from SkylakeX's, and so do their Lyapunov values
COUPLED_LYAPUNOV = {("coupled_blocks", 0, "max_increase"): 9.672818102046676e-14,
                    ("coupled_blocks", 0, "final_value"): 0.15741703734087065,
                    ("coupled_blocks", 0, "drift"): -3.402444992417486e-12}
INLINE_REPORTS = {
    "SkylakeX": SKYLAKEX_INLINE_REPORTS,
    "Haswell": _moved(SKYLAKEX_INLINE_REPORTS, COUPLED_LYAPUNOV),
    "Prescott": _moved(SKYLAKEX_INLINE_REPORTS, {
        **COUPLED_LYAPUNOV,
        ("coupled_blocks", 1, "min_margin"): -3.469446951953614e-18,
        ("shifted_lv", 1, "min_margin"): -2.1127491273448262e-05,
    }),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("config", [COUPLED_CONFIG, LV_CONFIG, SHIFTED_LV_CONFIG],
                         ids=lambda c: c["name"])
def test_inline_config_outputs_match_pinned(config, fmt, tmp_path, blas_kernel):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out), "--format", fmt, "--quiet"])
    assert code == 0
    name = config["name"]
    trajectory = (out / f"{name}_trajectory.{fmt}").read_bytes()
    digest = INLINE_TRAJECTORY_SHA256[blas_kernel][(name, fmt)]
    assert hashlib.sha256(trajectory).hexdigest() == digest
    report = json.loads((out / f"{name}_report.json").read_text())
    assert report == INLINE_REPORTS[blas_kernel][name]


#: 2-vectors (a0, a1) . (b0, b1) whose plain rounding, a0*b0 + a1*b1, differs from the fused
#: one, fma(a1, b1, a0*b0).
DOT_CASES = [
    (-2.0745499247520063, -0.5297213658560812, 0.6429378865460603, 0.5044045124140286),
    (0.11965743063739503, 0.6057925861973513, 0.5984525261738662, -1.7847787170509353),
    (-0.11544108604104043, 0.6802084757997748, 0.36702378445715156, -0.5973206926718589),
    (-0.6450436110093112, 0.4711394248774034, -0.7199970030156277, -2.2968912585519745),
    (-2.4128584505198267, -0.13889123612091805, -0.2312318345827656, 1.5580658060149324),
    (1.0529878112132203, -1.0153344789672285, -0.7019506435788719, -1.1046732202823801),
]


#: Whether each kernel's np.dot rounds a 2-vector as one fused multiply-add (else twice).
FUSED_DOT = {"SkylakeX": True, "Haswell": False, "Prescott": False}


def test_the_blas_kernel_rounds_small_dots_as_the_pins_were_recorded(blas_kernel):
    """Each kernel's pins hold only where np.dot rounds small dots as when they were recorded.

    bench/golden.json holds SkylakeX's references only.
    """
    for a0, a1, b0, b1 in DOT_CASES:
        # Fraction arithmetic is exact and float() of a Fraction rounds once, as an FMA does
        fused = float(Fraction(a1) * Fraction(b1) + Fraction(a0 * b0))
        plain = a0 * b0 + a1 * b1
        assert fused != plain, "the case does not tell the two roundings apart"
        rounding = "one fused multiply-add" if FUSED_DOT[blas_kernel] else "a0*b0 + a1*b1"
        if float(np.dot([a0, a1], [b0, b1])) != (fused if FUSED_DOT[blas_kernel] else plain):
            pytest.fail(f"np.dot does not round 2-vectors as {rounding}, as the {blas_kernel} "
                        "kernel did when its pins were recorded, so the golden tests fail here "
                        "whatever the code does.")

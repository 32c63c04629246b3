"""Command-line front end: scenario configs, output files, exit codes.

Runs the entry point in-process (main(argv) returns the exit status), so
these tests exercise argument parsing, config validation, file writing, and
the pass/fail plumbing without subprocess overhead.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from simplexdyn import cli
from simplexdyn.cli import load_scenario, main
from simplexdyn.errors import ConfigError

HAWK_DOVE = [[-1.0, 2.0], [0.0, 1.0]]
RPS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]


def _write_config(path, **overrides):
    config = {
        "name": "hd",
        "kind": "replicator",
        "landscape": {"type": "linear", "matrix": HAWK_DOVE},
        "initial_state": [0.9, 0.1],
        "target": [0.5, 0.5],
        "dt": 0.01,
        "steps": 200,
        "checks": [{"name": "lyapunov"}],
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_simulate_writes_csv_and_report(tmp_path):
    cfg = _write_config(tmp_path / "hd.json")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0

    with (out / "hd_trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t",
        "x_1",
        "x_2",
        "mean_fitness",
        "fitness_variance",
        "divergence_to_target",
        "state_total",
    ]
    assert len(rows) == 202  # header + initial state + 200 steps
    # re-parsed states satisfy the simplex invariants
    states = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
    assert np.all(states > 0.0)
    np.testing.assert_allclose(states.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    # time column is the uniform grid
    assert float(rows[1][0]) == 0.0
    assert float(rows[2][0]) == pytest.approx(0.01)

    report = json.loads((out / "hd_report.json").read_text())
    assert report["scenario"] == "hd"
    assert report["truncated"] is False
    assert report["checks"][0]["name"] == "lyapunov"
    assert report["checks"][0]["pass"] is True
    assert "max_increase" in report["checks"][0]["metrics"]


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path / "hd.json",
        checks=[{"name": "lyapunov"}, {"name": "ess", "radius": 0.2, "samples": 100, "seed": 7}],
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "hd_trajectory.csv").read_bytes() == (out2 / "hd_trajectory.csv").read_bytes()
    assert (out1 / "hd_report.json").read_bytes() == (out2 / "hd_report.json").read_bytes()


def test_simulate_json_trajectory_format(tmp_path):
    cfg = _write_config(tmp_path / "hd.json", steps=50)
    out = tmp_path / "out"
    assert main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--format", "json", "--quiet"]
    ) == 0
    payload = json.loads((out / "hd_trajectory.json").read_text())
    assert len(payload["times"]) == 51
    assert payload["columns"][0] == "t"
    assert payload["truncated"] is False


def test_simulate_failing_check_exits_2(tmp_path):
    cfg = _write_config(
        tmp_path / "rps.json",
        name="rps",
        landscape={"type": "linear", "matrix": RPS},
        initial_state=[0.5, 0.25, 0.25],
        target=["1/3", "1/3", "1/3"],
        dt=0.01,
        steps=100,
        checks=[{"name": "ess", "radius": 0.1, "samples": 50, "seed": 1}],  # not an ESS
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "rps_report.json").read_text())
    assert report["checks"][0]["pass"] is False
    # expect: false turns the same outcome into a pass
    cfg2 = _write_config(
        tmp_path / "rps2.json",
        name="rps2",
        landscape={"type": "linear", "matrix": RPS},
        initial_state=[0.5, 0.25, 0.25],
        target=["1/3", "1/3", "1/3"],
        dt=0.01,
        steps=100,
        checks=[{"name": "ess", "expect": False, "radius": 0.1, "samples": 50, "seed": 1}],
    )
    assert main(["simulate", "--config", str(cfg2), "--out", str(out), "--quiet"]) == 0


def test_simulate_bad_dt_exits_1_naming_the_field(tmp_path, capsys):
    cfg = _write_config(tmp_path / "bad.json", dt=-1)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "dt" in err


def test_load_scenario_validation_messages(tmp_path):
    p = tmp_path / "c.json"

    p.write_text("not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_scenario(str(p))

    _write_config(p, kind="brownian")
    with pytest.raises(ConfigError, match="kind"):
        load_scenario(str(p))

    _write_config(p, steps=0)
    with pytest.raises(ConfigError, match="steps"):
        load_scenario(str(p))

    _write_config(p, initial_state=[0.9, 0.2])
    with pytest.raises(ConfigError, match="initial_state"):
        load_scenario(str(p))

    _write_config(p, landscape={"type": "warped"})
    with pytest.raises(ConfigError, match="landscape"):
        load_scenario(str(p))

    _write_config(p, checks=[{"name": "astrology"}])
    with pytest.raises(ConfigError, match="check"):
        load_scenario(str(p))

    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))


def test_simulate_truncated_run_exits_1_with_partial_outputs(tmp_path, capsys):
    # coordination game: the center repels, one coordinate decays to the
    # positivity floor well before the requested horizon
    cfg = _write_config(
        tmp_path / "coord.json",
        name="coord",
        landscape={"type": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        initial_state=[0.6, 0.4],
        target=None,
        dt=0.01,
        steps=5000,
        checks=[],
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "coord_report.json").read_text())
    assert report["truncated"] is True
    assert "positivity" in report["failure"]
    with (out / "coord_trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert 1 < len(rows) < 5002


def test_simulate_lyapunov_on_a_blown_up_abundance_run_prints_no_warning(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "blowup.json",
        name="blowup",
        kind="lotka_volterra",
        landscape={"type": "linear", "matrix": [[1.0, 0.0], [0.0, 0.9]]},
        initial_state=[1.0, 1.0],
        target=[1.0, 1.0],
        dt=0.1,
        steps=100,
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "blowup: truncated (positivity lost at step 13 (t = 1.3))\n"
    metrics = json.loads((out / "blowup_report.json").read_text())["checks"][0]["metrics"]
    assert metrics["parallel_before_convergence"] == 0 and metrics["monotone"] is False


def test_simulate_coupled_scenario(tmp_path):
    cfg = tmp_path / "mp.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "mp",
                "kind": "coupled_replicator",
                "landscape": {
                    "f": {"type": "linear", "matrix": [[1.0, -1.0], [-1.0, 1.0]]},
                    "g": {"type": "linear", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
                },
                "initial_state": {"p": [0.6, 0.4], "q": [0.5, 0.5]},
                "target": {"p": [0.5, 0.5], "q": [0.5, 0.5]},
                "dt": 0.01,
                "steps": 100,
                "checks": [
                    {"name": "coupled_ess", "expect": False, "radius": 0.1, "samples": 50, "seed": 3}
                ],
            }
        )
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    with (out / "mp_trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["t", "x_1", "x_2", "y_1", "y_2"]
    states = np.array([[float(v) for v in r[1:5]] for r in rows[1:]])
    np.testing.assert_allclose(states[:, :2].sum(axis=1), 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(states[:, 2:].sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_a_coupled_target_that_sums_past_float64_is_one_config_error_with_no_warning(tmp_path,
                                                                                      capsys):
    # numpy's "overflow encountered in reduce" came before the refusal
    cfg = _write_config(tmp_path / "mp.json", name="mp", kind="coupled_replicator",
                        landscape=MP_LANDSCAPE, initial_state=MP_STATE,
                        target={"p": [0.5, 0.5], "q": [1e308, 1e308]}, checks=[])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1 and not (tmp_path / "o").exists()
    assert capsys.readouterr().err == ("error: 'target.q': coordinates sum to inf, expected 1 "
                                       "within 1e-09\n")


def test_simulate_multiple_configs_and_jobs(tmp_path):
    a = _write_config(tmp_path / "a.json", name="a", steps=50)
    b = _write_config(tmp_path / "b.json", name="b", steps=50)
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(a), str(b), "--out", str(out), "--jobs", "2", "--quiet"]
    )
    assert code == 0
    assert (out / "a_trajectory.csv").exists() and (out / "b_trajectory.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_jobs_1_and_jobs_2_write_the_same_bytes(tmp_path, fmt):
    configs = [
        _write_config(tmp_path / "rep.json", name="rep", checks=[
            {"name": "lyapunov"}, {"name": "ess", "samples": 50, "expect": True}]),
        _write_config(tmp_path / "mp.json", name="mp", kind="coupled_replicator",
                      landscape=MP_LANDSCAPE, initial_state=MP_STATE,
                      target={"p": [0.5, 0.5], "q": [0.5, 0.5]},
                      checks=[{"name": "coupled_ess", "expect": False, "samples": 50}]),
        # truncates: the recorded abundances blow up within 100 steps
        _write_config(tmp_path / "lv.json", name="lv", kind="lotka_volterra",
                      landscape={"type": "linear", "matrix": [[1.0, 0.0], [0.0, 0.9]]},
                      initial_state=[1.0, 1.0], target=[1.0, 1.0], dt=0.1, steps=100,
                      checks=[{"name": "denorm_ess", "samples": 50}]),
    ]
    codes, written = {}, {}
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        codes[jobs] = main(["simulate", "--config", *map(str, configs), "--out", str(out),
                            "--format", fmt, "--jobs", jobs, "--quiet"])
        written[jobs] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert codes["1"] == codes["2"] == 1
    assert written["1"] == written["2"] and len(written["1"]) == 6
    assert json.loads(written["1"]["lv_report.json"])["truncated"] is True


def test_jobs_starts_at_most_one_worker_per_config(tmp_path, monkeypatch):
    """A pool with more workers than configs would start every idle worker at its first submit."""
    import concurrent.futures

    seen = []

    class InProcessPool:  # records the size asked for and starts no process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    configs = [str(_write_config(tmp_path / f"{name}.json", name=name, steps=50))
               for name in ("a", "b")]
    written = {}
    for jobs in ("1", "1000000"):
        out = tmp_path / f"out{jobs}"
        assert main(["simulate", "--config", *configs, "--out", str(out), "--jobs", jobs,
                     "--quiet"]) == 0
        written[jobs] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert seen == [2]
    assert written["1"] == written["1000000"] and len(written["1"]) == 4


def test_simulate_output_collision_is_a_config_error(tmp_path, capsys):
    a = _write_config(tmp_path / "a.json", name="same")
    b = _write_config(tmp_path / "b.json", name="same")
    code = main(["simulate", "--config", str(a), str(b), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert "both write" in capsys.readouterr().err


def test_check_ess_subcommand(capsys):
    code = main(
        [
            "check",
            "ess",
            "--matrix",
            "[[-1,2],[0,1]]",
            "--point",
            "0.5,0.5",
            "--radius",
            "0.2",
            "--samples",
            "1000",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["report"]["is_ess"] is True
    assert payload["report"]["samples_tested"] == 1000


def test_check_ess_not_stable_exits_2(capsys):
    code = main(
        ["check", "ess", "--matrix", "[[1,0],[0,1]]", "--point", "0.5,0.5",
         "--radius", "0.2", "--samples", "100", "--seed", "0"]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_check_localize_subcommand(capsys):
    code = main(["check", "localize", "--point", "0.5,0.5", "--h", "0.001"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["report"]["diag"], [2.0, 2.0], atol=1e-4)
    assert payload["report"]["sign"] == -1


def test_check_gradient_subcommand_with_fractions(capsys):
    code = main(
        ["check", "gradient", "--point", "1/3,1/3,1/3", "--grad", "1,2,3", "--probes", "100"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["residual"] <= 1e-12


def test_check_bad_vector_exits_1(capsys):
    code = main(["check", "gradient", "--point", "what", "--grad", "1,2,3"])
    assert code == 1


def test_zero_denominator_in_config_names_the_field(tmp_path, capsys):
    cfg = _write_config(tmp_path / "z.json", initial_state=["1/0", "1/2"])
    with pytest.raises(ConfigError, match="initial_state"):
        load_scenario(str(cfg))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "initial_state" in err


def test_zero_denominator_in_check_option_exits_1(capsys):
    assert main(["check", "gradient", "--point", "1/0,1", "--grad", "1,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--point" in err


def test_unknown_outputs_key_is_a_config_error(tmp_path):
    # the spelling an older README documented
    cfg = _write_config(tmp_path / "o.json", outputs={"trajectory": "hd.csv"})
    with pytest.raises(ConfigError, match=r"outputs\.trajectory"):
        load_scenario(str(cfg))
    cfg = _write_config(
        tmp_path / "o.json", outputs={"trajectory_csv": "t.csv", "report_json": "r.json"}
    )
    scenario = load_scenario(str(cfg))
    assert (scenario.trajectory_file, scenario.report_file) == ("t.csv", "r.json")


LOCALIZE_STDOUT = """{
  "check": "localize",
  "pass": true,
  "report": {
    "diag": [
      2.000002666673138,
      3.3333456790946188,
      5.0000416672917005
    ],
    "sign": -1,
    "max_offdiag": 1.0842021724855044e-13,
    "max_error": 4.166729170052008e-05,
    "tol": 0.0001
  }
}
"""

ESS_STDOUT = """{
  "check": "ess",
  "pass": true,
  "report": {
    "is_ess": true,
    "min_margin": 1.0728260453340965e-06,
    "samples_tested": 200,
    "radius": 0.2,
    "indeterminate": 0
  }
}
"""


def test_check_stdout_bytes_are_pinned(capsys):
    assert main(["check", "localize", "--point", "0.5,0.3,0.2"]) == 0
    assert capsys.readouterr().out == LOCALIZE_STDOUT
    argv = ["check", "ess", "--matrix", "[[-1,2],[0,1]]", "--point", "1/2,1/2",
            "--radius", "0.2", "--samples", "200", "--seed", "7"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ESS_STDOUT


GRADIENT_STDOUT = """{
  "check": "gradient",
  "pass": true,
  "report": {
    "residual": 4.440892098500626e-16,
    "tol": 1e-10,
    "probes": 50
  }
}
"""


def test_check_gradient_stdout_bytes_are_pinned(capsys):
    # the metrics keep the order simulate writes: residual, tol, probes
    argv = ["check", "gradient", "--point", "1/4,3/4", "--grad", "1,2", "--seed", "3",
            "--probes", "50"]
    assert main(argv) == 0
    assert capsys.readouterr().out == GRADIENT_STDOUT


def test_unknown_check_key_is_a_config_error(tmp_path, capsys):
    checks = [{"name": "lyapunov"}, {"name": "ess", "sampels": 3}]
    cfg = _write_config(tmp_path / "c.json", checks=checks)
    with pytest.raises(ConfigError, match=r"checks\[1\]\.sampels"):
        load_scenario(str(cfg))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "checks[1].sampels" in capsys.readouterr().err
    cfg = _write_config(tmp_path / "c.json", checks=[{"name": "ess", "samples": 3}])
    assert load_scenario(str(cfg)).checks == [
        {"name": "ess", "radius": 0.05, "samples": 3, "seed": 0, "expect": True}
    ]


MP_LANDSCAPE = {
    "f": {"type": "linear", "matrix": [[1.0, -1.0], [-1.0, 1.0]]},
    "g": {"type": "linear", "matrix": [[-1.0, 1.0], [1.0, -1.0]]},
}
MP_STATE = {"p": [0.6, 0.4], "q": [0.5, 0.5]}
LOG_LINEAR = {"type": "log_linear", "matrix": HAWK_DOVE, "offset": [0.0, 0.0]}


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"inital_state": [0.9, 0.1]}, "inital_state"),
        ({"landscape": {"type": "linear", "matrix": HAWK_DOVE, "matirx": HAWK_DOVE}},
         "landscape.matirx"),
        ({"landscape": {**LOG_LINEAR, "ofset": [0.0, 0.0]}}, "landscape.ofset"),
        ({"landscape": {"type": "scaled", "base": {**LOG_LINEAR, "ofset": [1.0, 0.0]},
                        "factor": 2.0}}, "landscape.base.ofset"),
        ({"landscape": {"type": "scaled", "base": LOG_LINEAR, "factor": 2.0, "factr": 3.0}},
         "landscape.factr"),
        ({"kind": "coupled_replicator", "landscape": {**MP_LANDSCAPE, "h": MP_LANDSCAPE["f"]},
          "initial_state": MP_STATE, "target": MP_STATE}, "landscape.h"),
        ({"kind": "coupled_replicator",
          "landscape": {**MP_LANDSCAPE, "f": {**MP_LANDSCAPE["f"], "offset": [0.0, 0.0]}},
          "initial_state": MP_STATE, "target": MP_STATE}, "landscape.f.offset"),
        ({"kind": "coupled_replicator", "landscape": MP_LANDSCAPE,
          "initial_state": {**MP_STATE, "r": [0.5, 0.5]}, "target": MP_STATE}, "initial_state.r"),
        ({"kind": "coupled_replicator", "landscape": MP_LANDSCAPE,
          "initial_state": MP_STATE, "target": {**MP_STATE, "r": [0.5, 0.5]}}, "target.r"),
    ],
)
def test_unknown_key_at_every_config_level_names_its_path(tmp_path, capsys, overrides, path):
    cfg = _write_config(tmp_path / "k.json", checks=[], **overrides)
    with pytest.raises(ConfigError, match=rf"unknown key '{re.escape(path)}'"):
        load_scenario(str(cfg))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert f"unknown key '{path}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _simulated_metrics(tmp_path, check, **overrides):
    cfg = _write_config(tmp_path / "p.json", name="p", checks=[check], **overrides)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    return json.loads((out / "p_report.json").read_text())["checks"][0]["metrics"]


@pytest.mark.parametrize(
    "argv, check, overrides",
    [
        (["ess", "--matrix", "[[-1,2],[0,1]]", "--point", "1/2,1/2", "--radius", "0.2",
          "--samples", "200", "--seed", "7"],
         {"name": "ess", "radius": 0.2, "samples": 200, "seed": 7}, {"target": ["1/2", "1/2"]}),
        (["localize", "--point", "0.5,0.3,0.2", "--h", "0.002", "--tol", "0.001"],
         {"name": "localize", "point": [0.5, 0.3, 0.2], "h": 0.002, "tol": 0.001}, {}),
        (["gradient", "--point", "1/4,3/4", "--grad", "1,2", "--probes", "50", "--seed", "3"],
         {"name": "gradient_consistency", "point": ["1/4", "3/4"], "grad": [1, 2], "probes": 50,
          "seed": 3}, {}),
    ],
)
def test_check_subcommand_reports_the_metrics_simulate_writes(tmp_path, capsys, argv, check,
                                                              overrides):
    assert main(["check", *argv]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["report"] == _simulated_metrics(tmp_path, check, **overrides)


def test_simulate_loads_each_config_once(tmp_path, capsys, monkeypatch):
    a = _write_config(tmp_path / "a.json", name="a", steps=20)
    bad = _write_config(tmp_path / "bad.json", name="bad", steps=0)
    b = _write_config(tmp_path / "b.json", name="b", steps=20)
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_scenario(path)

    monkeypatch.setattr(cli, "load_scenario", counting_load)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(a), str(bad), str(b), "--out", str(out),
                 "--quiet"]) == 1
    assert sorted(calls) == sorted([str(a), str(bad), str(b)])
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(err_lines) == 1 and "steps" in err_lines[0]
    for name in ("a", "b"):
        assert (out / f"{name}_trajectory.csv").exists() and (out / f"{name}_report.json").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"kind": ["replicator"]}, "kind"),
        ({"landscape": {"type": ["linear"], "matrix": HAWK_DOVE}}, "landscape"),
        ({"checks": [{"name": ["ess"]}]}, "check"),
    ],
)
def test_list_where_a_name_belongs_is_a_config_error(tmp_path, capsys, overrides, field):
    cfg = _write_config(tmp_path / "l.json", **overrides)
    with pytest.raises(ConfigError, match=field):
        load_scenario(str(cfg))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "check, key",
    [
        ({"name": "ess", "expect": "false"}, "expect"),
        ({"name": "lyapunov", "require_converged": "no"}, "require_converged"),
        ({"name": "ess", "samples": 2.7}, "samples"),
        ({"name": "ess", "samples": True}, "samples"),
        ({"name": "ess", "radius": "abc"}, "radius"),
        ({"name": "localize", "h": None}, "h"),
        ({"name": "lyapunov", "max_drift": "1e-3"}, "max_drift"),
        ({"name": "fisher_theorem", "tol": True}, "tol"),
        ({"name": "ess", "seed": -1}, "seed"),
        ({"name": "gradient_consistency", "probes": 0}, "probes"),
        ({"name": "gradient_consistency", "grad": [float("nan"), 1.0]}, "grad"),
    ],
)
def test_bad_check_value_is_one_named_error_before_any_write(tmp_path, capsys, check, key):
    cfg = _write_config(tmp_path / "v.json", checks=[{"name": "lyapunov"}, check])
    out = tmp_path / "o"
    out.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"'checks[1].{key}'" in err[0]
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, option",
    [
        (["ess", "--matrix", "[[-1,2],[0,1]]", "--point", "0.5,0.5", "--radius", "-1"], "--radius"),
        (["gradient", "--point", "0.5,0.5", "--grad", "1,2", "--probes", "0"], "--probes"),
        (["gradient", "--point", "0.5,0.5", "--grad", "1,2", "--seed", "-2"], "--seed"),
        (["localize", "--point", "0.5,0.5", "--h", "nan"], "--h"),
        (["localize", "--point", "0.5,0.5", "--tol", "-1"], "--tol"),
        (["gradient", "--point", "0.5,0.5", "--grad", "inf,1"], "--grad"),
        (["gradient", "--point", "0.5,0.5", "--grad", "nan,1"], "--grad"),
    ],
)
def test_bad_check_option_is_an_error_naming_the_option(capsys, argv, option):
    assert main(["check", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f"'{option}'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ess", "--matrix", "[[-1,2],[0,1]]", "--point", "0.5,0.5"],
        ["localize", "--point", "0.5,0.5"],
        ["gradient", "--point", "0.5,0.5", "--grad", "1,2"],
    ],
)
def test_check_subcommands_take_no_quiet_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["check", *argv, "--quiet"])
    assert exc.value.code == 2 and "--quiet" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"kind": "lotka_volterra", "initial_state": [1.0, 1.0], "target": [1.0, 1.0],
          "checks": [{"name": "ess"}]}, "target (SimplexPoint)"),
        ({"target": None, "checks": [{"name": "lyapunov"}]}, "target (object), got None"),
        ({"kind": "lotka_volterra", "initial_state": [1.0, 1.0], "target": None,
          "checks": [{"name": "localize"}]}, "needs a 'point'"),
        ({"checks": [{"name": "localize", "point": [0.5, 0.6]}]}, "checks[0].point"),
        ({"checks": [{"name": "fisher_theorem"}]}, "'checks[0]': payoff matrix must be symmetric"),
        ({"kind": "lotka_volterra", "initial_state": [1.0, 1.0], "target": None,
          "checks": [{"name": "fisher_theorem"}]}, "'checks[0]': check requires replicator"),
        ({"checks": [{"name": "gradient_consistency", "grad": [1, 2, 3]}]}, "'checks[0].grad'"),
        ({"checks": [{"name": "localize", "h": 0.5}]}, "'checks[0].h' must be smaller"),
        ({"checks": [{"name": "localize", "point": [0.9995, 0.0005]}]}, "'checks[0].h'"),
        ({"landscape": {"type": "linear", "matrix": [[1.0, 2.0], [2.0, 1.0]]}, "steps": 1,
          "checks": [{"name": "fisher_theorem"}]}, "'checks[0]': a central difference needs"),
    ],
)
def test_check_preconditions_fail_at_load(tmp_path, capsys, overrides, message):
    cfg = _write_config(tmp_path / "p.json", **overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_scenario(str(cfg))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_numbers_are_stored_as_float(tmp_path):
    cfg = _write_config(tmp_path / "f.json", checks=[{"name": "localize", "tol": 1}])
    scenario = load_scenario(str(cfg))
    (check,) = scenario.checks
    assert check.pop("point") is scenario.initial
    assert check == {"name": "localize", "h": 0.001, "tol": 1.0} and type(check["tol"]) is float
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert '"tol": 1.0\n' in (out / "hd_report.json").read_text()


@pytest.mark.parametrize(
    "overrides, fmt, named",
    [
        ({"outputs": {"trajectory_csv": 5}}, "csv", "'outputs.trajectory_csv'"),
        ({"outputs": {"trajectory_csv": "../escape.csv"}}, "csv", "'outputs.trajectory_csv'"),
        ({"outputs": {"report_json": "nodir/r.json"}}, "csv", "'outputs.report_json'"),
        ({"outputs": {"report_json": ".."}}, "csv", "'outputs.report_json'"),
        ({"name": "../escape"}, "csv", "'name'"),
        ({"outputs": {"trajectory_csv": "same.json", "report_json": "same.json"}}, "csv",
         "'same.json'"),
        ({"outputs": {"trajectory_csv": "t.csv", "report_json": "t.json"}}, "json", "'t.json'"),
        ({"steps": True}, "csv", "'steps'"),
        ({"dt": True}, "csv", "'dt'"),
        ({"dt": 1e308, "steps": 3}, "csv",
         "'dt': dt * steps must be a finite time, got dt = 1e+308, steps = 3"),
        ({"steps": 10**400}, "json", "'dt': dt * steps must be a finite time, got dt = 0.01"),
    ],
)
def test_bad_output_name_or_root_value_is_one_error_before_any_write(tmp_path, capsys, overrides,
                                                                      fmt, named):
    cfg = _write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "o"
    out.mkdir()
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert list(out.iterdir()) == [] and not (tmp_path / "escape.csv").exists()
    assert cli.run_scenario(str(cfg), str(out), fmt, True) == 1
    assert list(out.iterdir()) == []


def test_collisions_are_found_on_the_names_written(tmp_path, capsys):
    a = _write_config(tmp_path / "a.json", name="a", outputs={"trajectory_csv": "x.csv"})
    b = _write_config(tmp_path / "b.json", name="b", outputs={"report_json": "x.json"})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(a), str(b), "--out", str(out), "--quiet"]) == 0
    assert main(["simulate", "--config", str(a), str(b), "--out", str(tmp_path / "j"),
                 "--format", "json"]) == 1
    assert main(["simulate", "--config", str(a), str(a), "--out", str(tmp_path / "k")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("both write output" in line for line in err)
    assert not (tmp_path / "j").exists() and not (tmp_path / "k").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_write_error_is_an_error_line_naming_the_path(tmp_path, capfd, jobs):
    a = _write_config(tmp_path / "a.json", name="a", steps=5)
    b = _write_config(tmp_path / "b.json", name="b", steps=5)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert main(["simulate", "--config", str(a), str(b), "--out", str(out), "--jobs", jobs,
                 "--quiet"]) == 1
    err = capfd.readouterr().err.splitlines()  # fd-level: --jobs 2 writes from worker processes
    assert len(err) == 2 and all(line.startswith("error:") and str(out) in line for line in err)


def test_an_out_that_cannot_be_made_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated although --out cannot be made")

    monkeypatch.setattr(cli.dynamics, "integrate", integrate)
    a = _write_config(tmp_path / "a.json", name="a", steps=5)
    b = _write_config(tmp_path / "b.json", name="b", steps=5)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert main(["simulate", "--config", str(a), str(b), "--out", str(out), "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 2
    assert all(line.startswith("error:") and str(out) in line for line in err)


def test_each_output_line_is_one_write(tmp_path, monkeypatch):
    """--jobs workers share stdout and stderr: a line written in two parts could interleave."""
    class Writes(io.StringIO):
        def __init__(self):
            super().__init__()
            self.calls = []

        def write(self, text):
            self.calls.append(text)
            return super().write(text)

    a = _write_config(tmp_path / "a.json", name="a", steps=5)
    out, err = Writes(), Writes()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["simulate", "--config", str(a), "--out", str(tmp_path / "o")]) == 0
    (tmp_path / "taken").write_text("a file, not a directory")
    assert main(["simulate", "--config", str(a), "--out", str(tmp_path / "taken")]) == 1
    assert len(out.calls) == 2 and len(err.calls) == 1
    assert all(call.count("\n") == 1 and call.endswith("\n") for call in out.calls + err.calls)


#: JSON values by type, and the types each value type accepts (a None default also takes null).
JSON_VALUES = {
    bool: st.booleans(),
    int: st.integers(-1000, 1000),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers(0, 3), max_size=3),
    dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    type(None): st.none(),
}
ACCEPTED = {"flag": {bool}, "count": {int}, "seed": {int}, "positive": {int, float},
            "tolerance": {int, float}, "vector": {list}}
LOADS_WITH = {  # a config each check loads in; the others load in _write_config's default
    "coupled_ess": {"kind": "coupled_replicator", "landscape": MP_LANDSCAPE,
                    "initial_state": MP_STATE, "target": MP_STATE},
    "denorm_ess": {"kind": "lotka_volterra", "initial_state": [1.0, 1.0], "target": [1.0, 1.0]},
    "fisher_theorem": {"landscape": {"type": "linear", "matrix": [[1.0, 2.0], [2.0, 1.0]]}},
}


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_wrong_json_type_names_its_path_and_the_default_loads(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(cli._CHECKS)))
    key = data.draw(st.sampled_from(sorted(cli._CHECKS[name][1])))
    value_type, default = cli._CHECKS[name][1][key]
    wrong = [t for t in JSON_VALUES
             if t not in ACCEPTED[value_type] and not (t is type(None) and default is None)]
    value = data.draw(st.one_of(*(JSON_VALUES[t] for t in wrong)))
    cfg = _write_config(tmp_path / "h.json", checks=[{"name": name, key: value}],
                        **LOADS_WITH.get(name, {}))
    with pytest.raises(ConfigError, match=re.escape(f"'checks[0].{key}'")):
        load_scenario(str(cfg))
    _write_config(cfg, checks=[{"name": name, key: default}], **LOADS_WITH.get(name, {}))
    scenario = load_scenario(str(cfg))
    loaded = scenario.checks[0][key]
    if key == "point":  # the start state
        assert loaded is scenario.initial
    elif key == "grad":  # the payoff at the point, as the run computed it when grad was None
        point = scenario.checks[0]["point"]
        payoff = next(cli.dynamics._payoffs(scenario.kind, point.dim, None))(point.coords)
        assert type(loaded) is np.ndarray and loaded.tobytes() == payoff.tobytes()
    else:
        assert type(loaded) is type(default) and loaded == default


@pytest.mark.parametrize("name", sorted(cli._CHECKS))
def test_a_loaded_check_is_complete(tmp_path, name):
    cfg = _write_config(tmp_path / "c.json", checks=[{"name": name}], **LOADS_WITH.get(name, {}))
    assert set(load_scenario(str(cfg)).checks[0]) == {"name", *cli._CHECKS[name][1]}


CHECK_ARGV = {
    "ess": ["--point", "1/2,1/2", "--matrix", "[[-1,2],[0,1]]"],
    "localize": ["--point", "1/3,1/3,1/3"],
    "gradient": ["--point", "1/4,3/4", "--grad", "1,2"],
}


@pytest.mark.parametrize("command", sorted(cli._CHECK_COMMANDS))
def test_each_check_command_runs_a_complete_check(monkeypatch, capsys, command):
    run, handed = cli._run_check, []

    def recording(check, *rest):
        handed.append(check)
        return run(check, *rest)

    monkeypatch.setattr(cli, "_run_check", recording)
    main(["check", command, *CHECK_ARGV[command]])
    name = cli._CHECK_COMMANDS[command][0]
    assert [set(check) for check in handed] == [{"name", *cli._CHECKS[name][1]}]


def _readme_default(cell):
    try:
        return json.loads(cell)
    except ValueError:  # prose such as "none" or "the initial state": no default
        return None


def test_readme_check_table_matches_the_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^ *\| (`[\w`, ]+`) \| `(\w+)` \| (\w+) \| ([^|]+) \|$", readme, re.M)
    documented = {}
    for names, key, value_type, default in rows:
        for name in re.findall(r"`(\w+)`", names):
            documented.setdefault(name, {})[key] = (value_type, repr(_readme_default(default)))
    assert documented == {
        name: {key: (value_type, repr(default)) for key, (value_type, default) in keys.items()}
        for name, (_, keys) in cli._CHECKS.items()
    }


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_a_bad_jobs_value_is_one_error_line_before_any_config_is_read(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(out),
                 "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: '--jobs' must be an integer >= 1, got {jobs}\n"
    assert not out.exists()


def test_fisher_on_a_run_truncated_before_its_third_row_is_a_failed_entry(tmp_path, capsys):
    cfg = _write_config(tmp_path / "f.json", name="f", initial_state=[0.5, 0.5], target=None,
                        landscape={"type": "linear", "matrix": [[1000.0, 0.0], [0.0, -1000.0]]},
                        dt=0.1, steps=10, checks=[{"name": "fisher_theorem"}])
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "f_report.json").read_text())
    assert report["truncated"] is True and report["failure"].startswith("positivity lost")
    assert report["checks"] == [{"name": "fisher_theorem", "pass": False,
                                 "metrics": {"residual": None, "tol": 1e-5}}]
    captured = capsys.readouterr()
    assert "f: fisher_theorem: FAIL" in captured.out.splitlines()
    assert captured.err.startswith("f: truncated (positivity lost")


def _refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_json_trajectory_of_a_blow_up_is_strict_json(tmp_path):
    cfg = _write_config(tmp_path / "lv.json", name="lv", kind="lotka_volterra",
                        landscape={"type": "linear", "matrix": [[1.0, 0.0], [0.0, 0.9]]},
                        initial_state=[1.0, 1.0], target=None, dt=0.1, steps=100, checks=[])
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "json",
                 "--quiet"]) == 1
    payload = json.loads((out / "lv_trajectory.json").read_text(),
                         parse_constant=_refuse_constant)
    assert payload["truncated"] is True
    variance = payload["fitness_variance"]
    assert None in variance and all(v is None or np.isfinite(v) for v in variance)
    assert payload["divergence_to_target"] == [None] * len(payload["times"])


def test_console_lines_come_in_config_order_for_any_jobs(tmp_path, capfd):
    configs = [_write_config(tmp_path / "long.json", name="long", steps=40000),
               _write_config(tmp_path / "short.json", name="short", steps=10)]
    seen = {}
    for jobs in ("1", "2"):
        code = main(["simulate", "--config", *map(str, configs), "--out", str(tmp_path / "o"),
                     "--jobs", jobs])
        seen[jobs] = (code, *capfd.readouterr())
    assert seen["1"] == seen["2"]
    assert seen["1"][1].splitlines()[0] == "long: lyapunov: pass"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_quiet_writes_nothing_to_stdout(tmp_path, capfd, jobs):
    configs = [
        _write_config(tmp_path / "a.json", name="a", checks=[{"name": "ess", "expect": False}]),
        _write_config(tmp_path / "lv.json", name="lv", kind="lotka_volterra",
                      landscape={"type": "linear", "matrix": [[1.0, 0.0], [0.0, 0.9]]},
                      initial_state=[1.0, 1.0], target=[1.0, 1.0], dt=0.1, steps=100,
                      checks=[{"name": "denorm_ess", "samples": 50}]),
    ]
    assert main(["simulate", "--config", *map(str, configs), "--out", str(tmp_path / "o"),
                 "--jobs", jobs, "--quiet"]) == 1
    assert [cli.run_scenario(str(c), str(tmp_path / "p"), "json", True) for c in configs] == [2, 1]
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("rest", [["--out", "o", "--jobs", "abc"], []], ids=["jobs-abc", "no-out"])
def test_an_argparse_refusal_exits_2_with_a_usage_line_and_writes_nothing(
    tmp_path, capsys, monkeypatch, rest
):
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path / "a.json", name="a")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "a.json", *rest])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


def test_importing_the_cli_does_not_import_concurrent_futures():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, simplexdyn.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"


def test_the_star_import_binds_every_public_name_and_no_module():
    import simplexdyn

    names = {}
    exec("from simplexdyn import *", names)
    del names["__builtins__"]
    assert set(names) == set(simplexdyn.__all__)
    assert len(set(simplexdyn.__all__)) == len(simplexdyn.__all__)
    assert not any(isinstance(value, type(cli)) for value in names.values())
    public = {name for name, value in vars(simplexdyn).items()
              if not name.startswith("_") and not isinstance(value, type(cli))}
    assert public <= set(simplexdyn.__all__)


def _one_error_and_nothing_written(capsys, code, out):
    """The one ``error:`` line of a refused run that exited 1 and wrote nothing."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 1 and captured.out == "" and len(err) == 1 and err[0].startswith("error:")
    assert not out.exists() or list(out.iterdir()) == []
    return err[0]


@pytest.mark.parametrize(
    "check, argv",
    [
        ({"name": "localize", "point": [0.001, 0.999], "h": 0.01},
         ["localize", "--point", "0.001,0.999", "--h", "0.01"]),
        ({"name": "gradient_consistency", "point": [0.5, 0.5], "grad": [1, 2, 3]},
         ["gradient", "--point", "0.5,0.5", "--grad", "1,2,3"]),
        ({"name": "ess", "radius": -1.0},
         ["ess", "--matrix", "[[-1,2],[0,1]]", "--point", "0.5,0.5", "--radius", "-1"]),
        ({"name": "gradient_consistency", "grad": [1, 2], "probes": 0},
         ["gradient", "--point", "0.5,0.5", "--grad", "1,2", "--probes", "0"]),
    ],
    ids=["h", "grad", "radius", "probes"],
)
def test_simulate_and_check_refuse_a_bad_check_value_with_one_text(tmp_path, capsys, check,
                                                                     argv):
    cfg = _write_config(tmp_path / "c.json", checks=[check])
    out = tmp_path / "o"
    simulated = _one_error_and_nothing_written(
        capsys, main(["simulate", "--config", str(cfg), "--out", str(out)]), out)
    checked = _one_error_and_nothing_written(capsys, main(["check", *argv]), out)
    assert "'checks[0]." in simulated
    assert checked == simulated.replace("'checks[0].", "'--")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "landscape, key",
    [
        ({"type": "linear", "matrix": [[NAN, 2.0], [0.0, 1.0]]}, "landscape.matrix"),
        ({"type": "linear", "matrix": [[-1.0, 2.0], [0.0, INF]]}, "landscape.matrix"),
        ({"type": "linear", "matrix": [[True, 2.0], [0.0, 1.0]]}, "landscape.matrix"),
        ({"type": "linear", "matrix": [[10**400, 2.0], [0.0, 1.0]]}, "landscape.matrix"),
        ({**LOG_LINEAR, "matrix": [[-1.0, INF], [0.0, 1.0]]}, "landscape.matrix"),
        ({**LOG_LINEAR, "offset": [NAN, 0.0]}, "landscape.offset"),
        ({**LOG_LINEAR, "offset": [0.0, -INF]}, "landscape.offset"),
        ({"type": "scaled", "base": LOG_LINEAR, "factor": INF}, "landscape.factor"),
        ({"type": "scaled", "base": LOG_LINEAR, "factor": "2"}, "landscape.factor"),
        ({"type": "scaled", "base": LOG_LINEAR, "factor": True}, "landscape.factor"),
        ({"type": "scaled", "base": {"type": "linear", "matrix": [[NAN, 2.0], [0.0, 1.0]]},
          "factor": 2.0}, "landscape.base.matrix"),
        ({"type": "linear", "matrix": [[-1.0, 2.0], [0.0]]}, "landscape.matrix"),
        ({"type": "linear", "matrix": [[-1.0, 2.0], 3.0]}, "landscape.matrix"),
        ({"type": "linear", "matrix": []}, "landscape.matrix"),
        ({**LOG_LINEAR, "offset": [0.0, 0.0, 0.0]}, "landscape.offset"),
    ],
)
def test_a_landscape_number_is_read_like_every_other_number(tmp_path, capsys, landscape, key):
    cfg = _write_config(tmp_path / "l.json", landscape=landscape)
    with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
        load_scenario(str(cfg))
    out = tmp_path / "o"
    err = _one_error_and_nothing_written(
        capsys, main(["simulate", "--config", str(cfg), "--out", str(out)]), out)
    assert f"'{key}'" in err


@pytest.mark.parametrize("overrides, message", [
    ({"initial_state": [True, 0.1]}, "'initial_state' entry True is not a real number"),
    ({"initial_state": [[0.9], 0.1]}, "'initial_state' is ragged: "),
    ({"initial_state": [[0.9, 0.1]]}, "'initial_state' must be a flat list of numbers"),
    ({"target": [0.5, 10**400]}, "'target' entry 1000"),
    ({"landscape": {"type": "linear", "matrix": [[[-1], [2]], [[0], [1]]]}},
     "'landscape.matrix' must be a flat list of numbers"),
])
def test_a_vector_entry_that_is_no_number_names_its_field(tmp_path, capsys, overrides, message):
    cfg = _write_config(tmp_path / "v.json", **overrides)
    out = tmp_path / "o"
    err = _one_error_and_nothing_written(
        capsys, main(["simulate", "--config", str(cfg), "--out", str(out)]), out)
    assert err.startswith(f"error: {message}")


def test_a_coupled_landscape_number_names_its_population(tmp_path, capsys):
    f = {"type": "linear", "matrix": [[1.0, NAN], [-1.0, 1.0]]}
    cfg = _write_config(tmp_path / "c.json", kind="coupled_replicator", checks=[],
                        landscape={**MP_LANDSCAPE, "f": f}, initial_state=MP_STATE,
                        target=MP_STATE)
    with pytest.raises(ConfigError, match=re.escape("'landscape.f.matrix'")):
        load_scenario(str(cfg))


@pytest.mark.parametrize("matrix", ["[[NaN,1],[1,0]]", "[[-1,2],[0,Infinity]]",
                                    "[[true,2],[0,1]]", "[[-1,2],[0]]", "5", "[[-1,2],[0,1]"])
def test_check_ess_reads_the_matrix_like_a_config(tmp_path, capsys, matrix):
    code = main(["check", "ess", "--matrix", matrix, "--point", "0.5,0.5"])
    assert "'--matrix'" in _one_error_and_nothing_written(capsys, code, tmp_path / "o")


def test_a_fraction_string_in_a_matrix_loads_as_in_every_vector(tmp_path, capsys):
    cfg = _write_config(tmp_path / "f.json", landscape={
        "type": "scaled", "base": {**LOG_LINEAR, "matrix": [["-1/3", 2], [0, "1/2"]],
                                   "offset": ["1/4", 0]}, "factor": 2})
    landscape = load_scenario(str(cfg)).kind.f
    np.testing.assert_array_equal(landscape.base.matrix, [[-1.0 / 3.0, 2.0], [0.0, 0.5]])
    np.testing.assert_array_equal(landscape.base.offset, [0.25, 0.0])
    assert landscape.factor == 2.0
    argv = ["check", "ess", "--matrix", '[["-1/1",2],[0,1]]', "--point", "1/2,1/2",
            "--radius", "0.2", "--samples", "200", "--seed", "7"]
    assert main(argv) == 0
    assert capsys.readouterr().out == ESS_STDOUT


GRADIENT_NEEDS = [
    ({"kind": "lotka_volterra", "landscape": {"type": "linear", "matrix": (-np.eye(3)).tolist()},
      "initial_state": [1.0, 1.0, 1.0], "target": [1.0, 1.0, 1.0],
      "checks": [{"name": "gradient_consistency", "point": [0.5, 0.5]}]},
     "'checks[0]': Linear matrix shape (3, 3) does not match state dimensions (2, 2)"),
    ({"kind": "coupled_replicator", "initial_state": {"p": [0.5, 0.5], "q": ["1/3"] * 3},
      "target": None, "checks": [{"name": "gradient_consistency", "point": [0.5, 0.5]}],
      "landscape": {"f": {"type": "linear", "matrix": [[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0]]},
                    "g": {"type": "linear", "matrix": [[-1.0, 1.0], [0.0, 0.0], [1.0, -1.0]]}}},
     "'checks[0]' needs a 'grad'"),
    ({"kind": "coupled_replicator", "landscape": MP_LANDSCAPE, "initial_state": MP_STATE,
      "target": MP_STATE, "checks": [{"name": "gradient_consistency", "point": [0.5, 0.5]}]},
     "'checks[0]' needs a 'grad'"),
]


@pytest.mark.parametrize("overrides, message", GRADIENT_NEEDS,
                         ids=["lv-point-too-short", "coupled-2x3", "coupled-2x2"])
def test_a_gradient_check_with_no_grad_needs_a_payoff_at_its_point(tmp_path, capsys, overrides,
                                                                   message):
    cfg = _write_config(tmp_path / "g.json", **overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_scenario(str(cfg))
    out = tmp_path / "o"
    err = _one_error_and_nothing_written(
        capsys, main(["simulate", "--config", str(cfg), "--out", str(out)]), out)
    assert message in err
    # with a grad of the point's length each config runs
    overrides["checks"][0]["grad"] = [1.0, -1.0]
    cfg = _write_config(tmp_path / "g.json", **overrides)
    assert load_scenario(str(cfg)).checks[0]["grad"].tolist() == [1.0, -1.0]


BASE_CONFIG = {"name": "hd", "kind": "replicator",
               "landscape": {"type": "linear", "matrix": HAWK_DOVE},
               "initial_state": [0.9, 0.1], "target": [0.5, 0.5], "dt": 0.01, "steps": 200}
COUPLED_CONFIG = {**BASE_CONFIG, "kind": "coupled_replicator", "landscape": MP_LANDSCAPE,
                  "initial_state": MP_STATE, "target": MP_STATE}


@pytest.mark.parametrize(
    "config, named",
    [
        ({k: v for k, v in BASE_CONFIG.items() if k != "dt"}, "missing required field 'dt'"),
        ({**BASE_CONFIG, "landscape": [[-1.0, 2.0], [0.0, 1.0]]}, "field 'landscape'"),
        ({**COUPLED_CONFIG, "initial_state": {"p": [0.6, 0.4]}}, "field 'initial_state'"),
        ([BASE_CONFIG], "config root"),
        ({**BASE_CONFIG, "name": ""}, "field 'name'"),
        ({**BASE_CONFIG, "name": 5}, "field 'name'"),
        ({**COUPLED_CONFIG, "landscape": {"f": MP_LANDSCAPE["f"]}}, "field 'landscape'"),
        ({**BASE_CONFIG, "checks": {"name": "lyapunov"}}, "field 'checks'"),
        ({**BASE_CONFIG, "outputs": ["hd.csv"]}, "field 'outputs'"),
        ({**BASE_CONFIG, "landscape": {"type": "log_linear", "matrix": HAWK_DOVE}},
         "missing required field 'landscape.offset'"),
    ],
    ids=["missing", "landscape-list", "coupled-no-q", "root-list", "name-empty", "name-int",
         "coupled-no-g", "checks-object", "outputs-list", "missing-nested"],
)
def test_each_config_refusal_is_one_error_naming_its_field(tmp_path, capsys, config, named):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_scenario(str(cfg))
    out = tmp_path / "o"
    err = _one_error_and_nothing_written(
        capsys, main(["simulate", "--config", str(cfg), "--out", str(out)]), out)
    assert named in err



TWO_BY_THREE = {"type": "linear", "matrix": [[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0]]}


@pytest.mark.parametrize(
    "config, message",
    [
        ({**BASE_CONFIG, "landscape": {"type": "linear", "matrix": RPS},
          "initial_state": [0.5, 0.5]},
         "'landscape': Linear matrix shape (3, 3) does not match state dimensions (2, 2)"),
        ({**COUPLED_CONFIG, "landscape": {**MP_LANDSCAPE, "f": TWO_BY_THREE}},
         "'landscape.f': Linear matrix shape (2, 3) does not match state dimensions (2, 2)"),
        ({**COUPLED_CONFIG, "landscape": {**MP_LANDSCAPE, "g": {
            "type": "scaled", "base": {**LOG_LINEAR, "matrix": TWO_BY_THREE["matrix"]},
            "factor": 2.0}}},
         "'landscape.g': LogLinear matrix shape (2, 3) does not match state dimensions (2, 2)"),
        ({**BASE_CONFIG, "target": ["1/3", "1/3", "1/3"]},
         "'target': target dimensions do not match the state dimensions"),
    ],
    ids=["replicator-3x3", "coupled-f-2x3", "coupled-g-2x3", "target-3"],
)
def test_a_landscape_or_target_that_does_not_fit_the_start_is_refused_at_load(
        tmp_path, capsys, config, message):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_scenario(str(cfg))
    out = tmp_path / "o"
    err = _one_error_and_nothing_written(
        capsys, main(["simulate", "--config", str(cfg), "--out", str(out)]), out)
    assert err == f"error: {message}"


def test_check_ess_refuses_a_matrix_that_does_not_fit_the_point_naming_the_option(tmp_path,
                                                                                   capsys):
    code = main(["check", "ess", "--matrix", json.dumps(RPS), "--point", "0.5,0.5"])
    err = _one_error_and_nothing_written(capsys, code, tmp_path / "o")
    assert err == ("error: '--matrix': Linear matrix shape (3, 3) does not match state "
                   "dimensions (2, 2)")


def test_a_non_finite_metric_is_null_in_a_strict_json_report(tmp_path, capsys):
    cfg = _write_config(tmp_path / "n.json", name="n", initial_state=[0.5, 0.5], dt=1e-210,
                        steps=4, landscape={"type": "linear", "matrix": [[1e200, 0.0],
                                                                         [0.0, -1e200]]},
                        checks=[{"name": "fisher_theorem"}, {"name": "lyapunov"}])
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "RuntimeWarning" not in capsys.readouterr().err
    report = json.loads((out / "n_report.json").read_text(), parse_constant=_refuse_constant)
    assert report["checks"][0] == {"name": "fisher_theorem", "pass": False,
                                   "metrics": {"residual": None, "tol": 1e-5}}
    assert report["checks"][1]["pass"] is True


def test_a_non_finite_metric_is_null_in_strict_check_output(capsys, monkeypatch):
    monkeypatch.setattr(cli.analysis, "gradient_consistency_check", lambda *args: float("nan"))
    assert main(["check", "gradient", "--point", "0.5,0.5", "--grad", "1,-1"]) == 2
    printed = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert printed == {"check": "gradient", "pass": False,
                       "report": {"residual": None, "tol": 1e-10, "probes": 100}}


def test_check_gradient_that_overflows_is_quiet_strict_json_and_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "gradient", "--point", "0.5,0.5", "--grad", "1e308,-1e308"]) == 2
    out, err = capsys.readouterr()
    printed = json.loads(out, parse_constant=_refuse_constant)
    assert printed["pass"] is False and printed["report"]["residual"] is None
    assert err == ""


def test_check_localize_with_an_underflowing_step_names_the_step_not_a_sign(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", "localize", "--point", "1e-300,1", "--h", "1e-301"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: localized second derivatives are not finite at step h = 1e-301\n"


def _good_beside(tmp_path, bad: Path, jobs: str, capfd):
    """Simulate ``bad`` and a good config in one call: exit code, stderr lines, files written."""
    good = _write_config(tmp_path / "good.json", name="good", steps=5)
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(bad), str(good), "--out", str(out), "--jobs", jobs,
                 "--quiet"])
    err = capfd.readouterr().err.splitlines()  # fd-level: --jobs 2 writes from worker processes
    return code, err, sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("text", [
    b"\xff" + json.dumps({"name": "bad"}).encode(),
    b"[" * 100_000,
    b'{"name": "bad", "dt": 1' + b"0" * 5000 + b"}",
], ids=["not-utf-8", "too-deep", "long-int"])
def test_a_config_json_cannot_read_is_one_error_line_and_the_others_run(tmp_path, capfd, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    code, err, files = _good_beside(tmp_path, bad, "1", capfd)
    assert code == 1 and len(err) == 1
    assert err[0].startswith(f"error: config {str(bad)!r} is not valid JSON: ")
    assert files == ["good_report.json", "good_trajectory.csv"]


@pytest.mark.parametrize("matrix", ["[" * 100_000, "[[1" + "0" * 5000 + ",2],[0,1]]"],
                         ids=["too-deep", "long-int"])
def test_check_ess_reads_a_matrix_json_cannot_read_as_one_error_line(tmp_path, capsys, matrix):
    code = main(["check", "ess", "--matrix", matrix, "--point", "0.5,0.5"])
    err = _one_error_and_nothing_written(capsys, code, tmp_path / "o")
    assert err.startswith("error: '--matrix' is not valid JSON: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_check_that_fails_at_run_time_writes_nothing_for_its_scenario(tmp_path, capfd, jobs):
    bad = _write_config(tmp_path / "bad.json", name="bad", steps=5,
                        checks=[{"name": "ess", "radius": 0.9}])
    code, err, files = _good_beside(tmp_path, bad, jobs, capfd)
    assert code == 1
    assert err == ["error: sample left the interior: radius 0.9 too large around [0.5 0.5]"]
    assert files == ["good_report.json", "good_trajectory.csv"]


# Configs nobody wrote: the bundled scenarios and four inline configs with one or two JSON
# leaves replaced from a pool of edge values, each run in process with warnings as errors.
FUZZ_CONFIGS = {
    **{path.stem: json.loads(path.read_text())
       for path in sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))},
    "lv": {"name": "lv", "kind": "lotka_volterra",
           "landscape": {"type": "linear", "matrix": [[-1.0, -0.2], [-0.3, -1.0]]},
           "initial_state": [0.5, 2.0], "target": [0.8, 0.7], "dt": 0.01, "steps": 150,
           "checks": [{"name": "lyapunov"},
                      {"name": "denorm_ess", "radius": 0.1, "samples": 50, "seed": 9}]},
    "shifted_lv": {"name": "slv", "kind": "shifted_lotka_volterra",
                   "landscape": {"type": "log_linear", "matrix": [[-1.2, 0.3], [-0.2, -0.9]],
                                 "offset": [0.4, -0.1]},
                   "initial_state": [2.0, 0.5], "dt": 0.02, "steps": 100,
                   "checks": [{"name": "lyapunov"}]},
    # fisher_theorem needs a replicator run: this config exercises the loader's refusals
    "ecological": {"name": "eco", "kind": "ecological",
                   "landscape": {"type": "scaled", "factor": 2.0, "base": {
                       "type": "linear", "matrix": [[1.0, 2.0], [2.0, 1.0]]}},
                   "initial_state": [0.3, 0.7], "dt": 0.05, "steps": 100,
                   "checks": [{"name": "fisher_theorem", "tol": 1e-3}]},
    "coupled": {"name": "cpl", "kind": "coupled_replicator", "landscape": MP_LANDSCAPE,
                "initial_state": MP_STATE, "target": {"p": [0.5, 0.5], "q": [0.5, 0.5]},
                "dt": 0.01, "steps": 100,
                "checks": [{"name": "coupled_ess", "expect": False, "radius": 0.05,
                            "samples": 50, "seed": 5}]},
}
FUZZ_VALUES = [0, 1, -1, 2, 0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-300, 1e308, -1e308,
               1.7e308, -1.7e308, 2**63, -(2**63), None, True, False, "", "x", "1/3", "1/0",
               "nan", "inf", "1e400", "linear", [], [0.5], [0.5, 0.5], [0.2, 0.3, 0.5],
               [1e308, 1e308], [[1.0, 2.0], [3.0, 4.0]], [[]], [[None]], {}]


def _leaves(value, path=()):
    """The path of every leaf of a JSON value: a number, string, bool, null or empty container."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    found = [leaf for key, item in items for leaf in _leaves(item, path + (key,))]
    return found or [path]


def _replaced(value, path, new):
    """A copy of the JSON value ``value`` with its leaf at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@settings(derandomize=True, deadline=None, max_examples=120)
@given(name=st.sampled_from(sorted(FUZZ_CONFIGS)),
       edits=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=2))
@example(name="hawk_dove", edits=[(17, 2**63)])  # ess samples: a Python loop past memory
@example(name="hawk_dove", edits=[(24, 2**63)])  # gradient probes: numpy's ValueError
@example(name="lv", edits=[(7, 5e-324)])  # a start frequency that underflows to 0
@example(name="lv", edits=[(4, -1.7e308), (10, 1)])  # sample payoffs that overflow
def test_a_config_with_mutated_leaves_runs_or_refuses_without_raising_or_warning(name, edits):
    config = FUZZ_CONFIGS[name]
    for where, value in edits:
        leaves = _leaves(config)
        config = _replaced(config, leaves[where % len(leaves)], value)
    if type(config.get("steps")) is int and config["steps"] > 200:  # a run of at most 200 steps
        config = {**config, "steps": 200}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code = main(["simulate", "--config", path, "--out", os.path.join(tmp, "out"), "--quiet"])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("argv, what", [
    (["ess", "--matrix", json.dumps(HAWK_DOVE), "--samples", str(2**63)], "samples"),
    (["gradient", "--grad", "0.5,0.5", "--probes", str(2**63)], "probes"),
])
def test_a_check_count_whose_draws_no_array_holds_is_one_error_line(tmp_path, capsys, argv,
                                                                     what):
    code = main(["check", *argv, "--point", "0.5,0.5"])
    err = _one_error_and_nothing_written(capsys, code, tmp_path / "o")
    assert err == (f"error: {what} = {2**63} asks for 2 random draws each, more than one "
                   "array can hold")

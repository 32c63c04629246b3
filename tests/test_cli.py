"""Command-line front end: scenario configs, output files, exit codes.

Runs the entry point in-process (main(argv) returns the exit status), so
these tests exercise argument parsing, config validation, file writing, and
the pass/fail plumbing without subprocess overhead.
"""

import csv
import json
import re

import numpy as np
import pytest

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

    rows = list(csv.reader((out / "hd_trajectory.csv").open()))
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
    rows = list(csv.reader((out / "coord_trajectory.csv").open()))
    assert 1 < len(rows) < 5002


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
    rows = list(csv.reader((out / "mp_trajectory.csv").open()))
    assert rows[0][:5] == ["t", "x_1", "x_2", "y_1", "y_2"]
    states = np.array([[float(v) for v in r[1:5]] for r in rows[1:]])
    np.testing.assert_allclose(states[:, :2].sum(axis=1), 1.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(states[:, 2:].sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_simulate_multiple_configs_and_jobs(tmp_path):
    a = _write_config(tmp_path / "a.json", name="a", steps=50)
    b = _write_config(tmp_path / "b.json", name="b", steps=50)
    out = tmp_path / "out"
    code = main(
        ["simulate", "--config", str(a), str(b), "--out", str(out), "--jobs", "2", "--quiet"]
    )
    assert code == 0
    assert (out / "a_trajectory.csv").exists() and (out / "b_trajectory.csv").exists()


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
    assert load_scenario(str(cfg)).checks == [{"name": "ess", "samples": 3}]


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

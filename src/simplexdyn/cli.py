"""Command-line interface: scenario simulation and one-shot checks.

``simulate`` loads each JSON scenario config once, refusing unknown keys at
every level, bad values and bad output names before anything is written, and
writes a trajectory file plus a JSON check report into the output directory;
``check`` runs one check from inline options and prints its JSON report.  One
table, ``_CHECKS``, gives each check key its type and default: a ``check``
option is the config key of the same name, and both run through ``_run_check``.

Exit codes: 0 when everything passed, 2 when a requested check failed, and
1 for configuration or runtime errors (including integrations truncated by
positivity loss, whose partial outputs are still written with
``"truncated": true``).

All outputs are deterministic functions of the configuration: CSV floats
are printed with 17 significant digits and report JSON carries no
timestamps or machine information, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, dynamics
from .core import (
    CoupledState,
    Landscape,
    Linear,
    LogLinear,
    OrthantPoint,
    Scaled,
    SimplexPoint,
    evaluate_landscape,
)
from .divergence import kl_formula
from .errors import ConfigError, SimplexDynError
from .geometry import localize_divergence, metric_at

_KIND_NAMES = {
    "replicator": dynamics.Replicator,
    "ecological": dynamics.Ecological,
    "lotka_volterra": dynamics.LotkaVolterra,
    "shifted_lotka_volterra": dynamics.ShiftedLotkaVolterra,
    "coupled_replicator": dynamics.CoupledReplicator,
}

_ESS_KEYS = {"radius": ("positive", 0.05), "samples": ("count", 500), "seed": ("seed", 0),
             "expect": ("flag", True)}

#: Each check: the target type it needs (``object``: any; None: none) and the only keys it takes
#: besides 'name', as ``{key: (type in _VALUE_TYPES, default)}`` (a None default: optional).
_CHECKS = {
    "ess": (SimplexPoint, _ESS_KEYS),
    "coupled_ess": (CoupledState, _ESS_KEYS),
    "denorm_ess": (OrthantPoint, _ESS_KEYS),
    "lyapunov": (object, {"require_converged": ("flag", False), "max_drift": ("tolerance", None)}),
    "fisher_theorem": (None, {"tol": ("tolerance", 1e-5)}),
    "gradient_consistency": (None, {"point": ("vector", None), "grad": ("vector", None),
                                    "probes": ("count", 100), "seed": ("seed", 0),
                                    "tol": ("tolerance", 1e-10)}),
    "localize": (None, {"point": ("vector", None), "h": ("positive", 1e-3),
                        "tol": ("tolerance", 1e-4)}),
}

#: Each value type: what a value must be, its test and the parser of a ``check`` option's text.
_VALUE_TYPES = {
    "flag": ("true or false", lambda v: type(v) is bool, None),
    "count": ("an integer >= 1", lambda v: type(v) is int and v >= 1, int),
    "seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0, int),
    "positive": ("a finite number > 0", lambda v: type(v) is float and 0.0 < v < np.inf, float),
    "tolerance": ("a finite number >= 0", lambda v: type(v) is float and 0.0 <= v < np.inf, float),
    "vector": ("comma-separated numbers or fractions", None, lambda text: text.split(",")),
}

#: ``check`` subcommands: the check each runs, the check keys it takes as options, its help.
_CHECK_COMMANDS = {
    "ess": ("ess", ("radius", "samples", "seed"), "sampled evolutionary stability check"),
    "localize": ("localize", ("h", "tol"), "localize the KL divergence at a point"),
    "gradient": ("gradient_consistency", ("grad", "probes", "seed", "tol"), "gradient consistency"),
}

_ROOT_KEYS = (
    "name", "kind", "landscape", "initial_state", "target", "dt", "steps", "checks", "outputs",
)

#: The keys each landscape type accepts ('scaled' nests another landscape in 'base').
_LANDSCAPE_KEYS = {
    "linear": ("type", "matrix"),
    "log_linear": ("type", "matrix", "offset"),
    "scaled": ("type", "base", "factor"),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated simulation request loaded from a JSON config file."""

    name: str
    kind: dynamics.VectorFieldKind
    initial: object
    target: Optional[object]
    dt: float
    steps: int
    checks: list
    trajectory_file: str
    report_file: str


def _require(config: dict, field: str):
    if field not in config:
        raise ConfigError(f"missing required field '{field}'")
    return config[field]


def _reject_unknown(payload: dict, allowed, path: str) -> None:
    """Raise a ConfigError naming the key path of the first key not in ``allowed``."""
    for key in payload:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key '{where}' (expected one of {sorted(allowed)})")


def _build_landscape(payload, field: str) -> Landscape:
    if not isinstance(payload, dict):
        raise ConfigError(f"field '{field}' must be an object describing a landscape")
    kind = payload.get("type")
    if kind not in tuple(_LANDSCAPE_KEYS):  # by equality: a JSON list is not hashable
        raise ConfigError(
            f"field '{field}' has unknown landscape type {kind!r} "
            "(expected 'linear', 'log_linear', or 'scaled')"
        )
    _reject_unknown(payload, _LANDSCAPE_KEYS[kind], field)
    try:
        if kind == "scaled":
            return Scaled(
                base=_build_landscape(_require(payload, "base"), f"{field}.base"),
                factor=float(_require(payload, "factor")),
            )
        matrix = np.asarray(_require(payload, "matrix"), dtype=float)
        if kind == "linear":
            return Linear(matrix)
        return LogLinear(matrix, np.asarray(_require(payload, "offset"), dtype=float))
    except (TypeError, ValueError, SimplexDynError) as exc:
        raise ConfigError(f"invalid landscape in field '{field}': {exc}") from exc


def _coerce_entry(value) -> float:
    """Accept JSON numbers or fraction strings like '1/3'."""
    if isinstance(value, str) and "/" in value:
        num, _, den = value.partition("/")
        return float(num) / float(den)
    return float(value)


def _coerce_array(payload, field: str) -> np.ndarray:
    """Parse a list of numbers or fraction strings; errors name the config field or option."""
    if not isinstance(payload, (list, tuple)):
        raise ConfigError(f"{field!r} must be a list of numbers, got {payload!r}")
    try:
        return np.array([_coerce_entry(v) for v in payload], dtype=float)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid number in {field!r}: {exc}") from exc


def _typed(value_type: str, value, field: str):
    """``value`` as a ``value_type`` of ``_VALUE_TYPES``; errors name the config field or option."""
    if value_type == "vector":
        return _coerce_array(value, field)
    if value_type in ("positive", "tolerance") and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else value  # "tol": 1 is 1.0
    text, valid, _ = _VALUE_TYPES[value_type]
    if not valid(value):
        raise ConfigError(f"{field!r} must be {text}, got {value!r}")
    return value


def _check_values(entry: dict, where: str) -> dict:
    """``entry`` with typed values (errors name ``where`` + key); optional keys also take None."""
    values = dict(entry)
    for key, (value_type, default) in _CHECKS[entry["name"]][1].items():
        if key in entry and not (entry[key] is None and default is None):
            values[key] = _typed(value_type, entry[key], where + key)
    return values


def _check_preconditions(check: dict, kind, initial, where: str) -> None:
    """Refuse a typed check that would fail on any trajectory; errors name ``where``."""
    name = check["name"]
    point = initial if check.get("point") is None else check["point"]
    if name == "fisher_theorem":
        try:
            analysis._require_fisher_kind(kind)
        except SimplexDynError as exc:
            raise ConfigError(f"'{where}': {exc}") from exc
    elif name == "gradient_consistency" and check.get("grad") is not None:
        if check["grad"].size != point.dim:
            raise ConfigError(f"'{where}.grad' must have the {point.dim} entries of its point, "
                              f"got {check['grad'].size}")
    elif name == "localize":
        h = check.get("h", _CHECKS[name][1]["h"][1])
        if not h < point.coords.min():
            raise ConfigError(f"'{where}.h' must be smaller than the point's smallest "
                              f"coordinate {point.coords.min()}, got {h}")


def _build_state(kind_name: str, payload, field: str):
    try:
        if kind_name == "coupled_replicator":
            if not isinstance(payload, dict) or "p" not in payload or "q" not in payload:
                raise ConfigError(f"field '{field}' must be an object with 'p' and 'q'")
            _reject_unknown(payload, ("p", "q"), field)
            return CoupledState(
                SimplexPoint(_coerce_array(payload["p"], f"{field}.p")),
                SimplexPoint(_coerce_array(payload["q"], f"{field}.q")),
            )
        if kind_name in ("lotka_volterra", "shifted_lotka_volterra"):
            return OrthantPoint(_coerce_array(payload, field))
        return SimplexPoint(_coerce_array(payload, field))
    except ConfigError:
        raise
    except (TypeError, ValueError, SimplexDynError) as exc:
        raise ConfigError(f"invalid state in field '{field}': {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(config, _ROOT_KEYS, "")

    name = _require(config, "name")
    if not isinstance(name, str) or not name:
        raise ConfigError("field 'name' must be a non-empty string")

    kind_name = _require(config, "kind")
    if kind_name not in tuple(_KIND_NAMES):
        raise ConfigError(
            f"field 'kind' has unknown value {kind_name!r} "
            f"(expected one of {sorted(_KIND_NAMES)})"
        )

    landscape_cfg = _require(config, "landscape")
    if kind_name == "coupled_replicator":
        if not isinstance(landscape_cfg, dict) or "f" not in landscape_cfg or "g" not in landscape_cfg:
            raise ConfigError("field 'landscape' must contain 'f' and 'g' for coupled dynamics")
        _reject_unknown(landscape_cfg, ("f", "g"), "landscape")
        f = _build_landscape(landscape_cfg["f"], "landscape.f")
        g = _build_landscape(landscape_cfg["g"], "landscape.g")
        kind = dynamics.CoupledReplicator(f, g)
    else:
        kind = _KIND_NAMES[kind_name](_build_landscape(landscape_cfg, "landscape"))

    initial = _build_state(kind_name, _require(config, "initial_state"), "initial_state")
    target = None
    if config.get("target") is not None:
        target = _build_state(kind_name, config["target"], "target")

    dt = _typed("positive", _require(config, "dt"), "dt")
    steps = _typed("count", _require(config, "steps"), "steps")

    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("field 'checks' must be a list")
    for i, entry in enumerate(checks):
        if not isinstance(entry, dict) or entry.get("name") not in tuple(_CHECKS):
            raise ConfigError(
                f"each check must be an object whose 'name' is one of {tuple(_CHECKS)}, "
                f"got {entry!r}"
            )
        needs, keys = _CHECKS[entry["name"]]
        _reject_unknown(entry, ("name", *keys), f"checks[{i}]")
        checks[i] = _check_values(entry, f"checks[{i}].")
        if needs is not None and (target is None or not isinstance(target, needs)):
            raise ConfigError(f"'checks[{i}]' needs a target ({needs.__name__}), got {target!r}")
        if entry.get("point") is not None:
            checks[i]["point"] = _build_state("replicator", entry["point"], f"checks[{i}].point")
        elif "point" in keys and not isinstance(initial, SimplexPoint):
            raise ConfigError(f"'checks[{i}]' needs a 'point': the start is not a simplex point")
        _check_preconditions(checks[i], kind, initial, f"checks[{i}]")

    outputs = config.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("field 'outputs' must be an object")
    _reject_unknown(outputs, ("trajectory_csv", "report_json"), "outputs")
    files = {"trajectory_csv": f"{name}_trajectory.csv", "report_json": f"{name}_report.json",
             **outputs}
    for key, file in files.items():
        if not isinstance(file, str) or file in ("", ".", "..") or file != os.path.basename(file):
            where = f"outputs.{key}" if key in outputs else "name"
            raise ConfigError(f"{where!r} must give a file name with no directory, got {file!r}")

    return Scenario(
        name=name,
        kind=kind,
        initial=initial,
        target=target,
        dt=dt,
        steps=steps,
        checks=checks,
        trajectory_file=files["trajectory_csv"],
        report_file=files["report_json"],
    )


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _csv_header(traj: dynamics.Trajectory) -> list[str]:
    n = traj.states.shape[1]
    split = n if traj.split is None else traj.split
    cols = [f"x_{i + 1}" for i in range(split)] + [f"y_{j + 1}" for j in range(n - split)]
    return ["t"] + cols + [
        "mean_fitness",
        "fitness_variance",
        "divergence_to_target",
        "state_total",
    ]


def write_trajectory_csv(path: str, traj: dynamics.Trajectory) -> None:
    """Write one row per recorded step with 17-significant-digit floats."""
    d = traj.diagnostics
    table = np.column_stack(
        (traj.times, traj.states, d.mean_fitness, d.fitness_variance, d.divergence_to_target,
         d.state_total)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(_csv_header(traj)),
                   comments="")


def write_trajectory_json(path: str, traj: dynamics.Trajectory) -> None:
    d = traj.diagnostics
    divergence = d.divergence_to_target
    payload = {
        "columns": _csv_header(traj),
        "times": traj.times.tolist(),
        "states": traj.states.tolist(),
        "mean_fitness": d.mean_fitness.tolist(),
        "fitness_variance": d.fitness_variance.tolist(),
        "divergence_to_target": np.where(np.isnan(divergence), None, divergence).tolist(),
        "state_total": d.state_total.tolist(),
        "truncated": traj.truncated,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _run_check(check: dict, kind, initial, target, traj: Optional[dynamics.Trajectory]) -> dict:
    """One check on a scenario's parts: its ``{"name", "pass", "metrics"}`` entry.

    ``check`` is typed and meets the preconditions ``load_scenario`` checks; ``traj`` is None
    for the ``check`` subcommand, whose checks never read it.
    """
    name = check["name"]
    check = {**{key: default for key, (_, default) in _CHECKS[name][1].items()}, **check}
    if name == "lyapunov":
        report = analysis.lyapunov_monitor(traj, target)
        drift = report.final_value - report.initial_value
        passed = report.monotone
        if check["require_converged"]:
            passed = passed and report.converged
        if check["max_drift"] is not None:
            passed = passed and abs(drift) <= check["max_drift"]
        metrics = {
            "monotone": report.monotone,
            "max_increase": report.max_increase,
            "initial_value": report.initial_value,
            "final_value": report.final_value,
            "drift": drift,
            "converged": report.converged,
        }
        if report.parallel_before_convergence is not None:
            metrics["parallel_before_convergence"] = report.parallel_before_convergence

    elif name in ("ess", "coupled_ess", "denorm_ess"):
        sampling = (check["radius"], check["samples"], check["seed"])
        if name == "ess":
            land = dynamics._blocks(kind, None)[0][1]
            report = analysis.ess_check(target, land, *sampling)
        elif name == "coupled_ess":
            report = analysis.coupled_ess_check(target.pop1, target.pop2, kind.f, kind.g, *sampling)
        else:
            report = analysis.denormalized_ess_check(target, kind.f, *sampling)
        passed = report.is_ess == check["expect"]
        metrics = {
            "is_ess": report.is_ess,
            "min_margin": report.min_margin,
            "samples_tested": report.samples_tested,
            "radius": report.radius,
            "indeterminate": report.indeterminate,
        }
        if report.parallel_samples is not None:
            metrics["parallel_samples"] = report.parallel_samples

    elif name == "fisher_theorem":
        residual = analysis.fisher_theorem_check(traj)
        passed, metrics = residual <= check["tol"], {"residual": residual, "tol": check["tol"]}

    else:  # gradient_consistency and localize: at the check's point, else the start state
        point = initial if check["point"] is None else check["point"]
        tol = check["tol"]
        if name == "gradient_consistency":
            grad = check["grad"]
            if grad is None:
                grad = evaluate_landscape(dynamics._blocks(kind, None)[0][1], point.coords)
            probes = check["probes"]
            residual = analysis.gradient_consistency_check(point, grad, probes, check["seed"])
            passed, metrics = residual <= tol, {"residual": residual, "tol": tol, "probes": probes}
        else:
            # pass when the localized diagonal is 1/x_i within tol
            report = localize_divergence(kl_formula, point, check["h"])
            err = float(np.max(np.abs(report.metric.diag - metric_at(point).diag)))
            passed, metrics = err <= tol, {
                "diag": report.metric.diag.tolist(),
                "sign": report.sign,
                "max_offdiag": report.max_offdiag,
                "max_error": err,
                "tol": tol,
            }
    return {"name": name, "pass": bool(passed), "metrics": metrics}


# ---------------------------------------------------------------------------
# Commands and entry point
# ---------------------------------------------------------------------------


def run_scenario(
    config_path: str, out_dir: str, fmt: str = "csv", quiet: bool = False
) -> int:
    """Load, integrate, check, and write one scenario.  Returns the exit code."""
    args = argparse.Namespace(config=[config_path], out=out_dir, format=fmt, jobs=1, quiet=quiet)
    return _simulate_command(args)


def _output_files(scenario: Scenario, fmt: str) -> tuple[str, str]:
    """The two distinct file names ``scenario`` writes: its trajectory in ``fmt`` and its report."""
    trajectory_file = scenario.trajectory_file
    if fmt == "json" and trajectory_file.endswith(".csv"):
        trajectory_file = trajectory_file[: -len(".csv")] + ".json"
    if trajectory_file == scenario.report_file:
        raise ConfigError(f"{scenario.name!r} writes trajectory and report to {trajectory_file!r}")
    return trajectory_file, scenario.report_file


def _line(stream, text: str) -> None:
    """Write ``text`` and its newline as one write, then flush.

    ``--jobs`` workers share the parent's stdout and stderr; ``print`` writes
    the text and the newline separately, and on an unbuffered stream the lines
    of two workers could interleave.
    """
    stream.write(text + "\n")
    stream.flush()


def _run_loaded(scenario: Scenario, out_dir: str, fmt: str, quiet: bool) -> int:
    """Integrate, check, and write one loaded scenario.  Returns the exit code."""
    try:
        trajectory_file, report_file = _output_files(scenario, fmt)
        os.makedirs(out_dir, exist_ok=True)
        traj = dynamics.integrate(
            scenario.kind, scenario.initial, scenario.dt, scenario.steps, target=scenario.target
        )
        trajectory_path = os.path.join(out_dir, trajectory_file)
        if fmt == "json":
            write_trajectory_json(trajectory_path, traj)
        else:
            write_trajectory_csv(trajectory_path, traj)
        checks = [
            _run_check(check, scenario.kind, scenario.initial, scenario.target, traj)
            for check in scenario.checks
        ]
        report = {
            "scenario": scenario.name,
            "checks": checks,
            "truncated": traj.truncated,
        }
        if traj.failure is not None:
            report["failure"] = traj.failure
        report_path = os.path.join(out_dir, report_file)
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except (SimplexDynError, OSError) as exc:  # an OSError names the path it could not write
        _line(sys.stderr, f"error: {exc}")
        return 1
    if not quiet:
        for check in checks:
            status = "pass" if check["pass"] else "FAIL"
            _line(sys.stdout, f"{scenario.name}: {check['name']}: {status}")
        _line(sys.stdout, f"{scenario.name}: wrote {trajectory_path} and {report_path}")
    if traj.truncated:
        if not quiet:
            _line(sys.stderr, f"{scenario.name}: truncated ({traj.failure})")
        return 1
    if any(not check["pass"] for check in checks):
        return 2
    return 0


def _simulate_command(args: argparse.Namespace) -> int:
    """Load every config once, refuse colliding outputs, then run the loaded scenarios."""
    scenarios, codes, seen = [], [], {}
    for path in args.config:
        try:
            scenario = load_scenario(path)
            files = _output_files(scenario, args.format)
        except ConfigError as exc:
            _line(sys.stderr, f"error: {exc}")
            codes.append(1)
            continue
        for out in files:
            if out in seen:
                raise ConfigError(f"configs {seen[out]!r} and {path!r} both write output {out!r}")
            seen[out] = path
        scenarios.append(scenario)
    run = functools.partial(_run_loaded, out_dir=args.out, fmt=args.format, quiet=args.quiet)
    if len(scenarios) > 1 and args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes += pool.map(run, scenarios)
    else:
        codes += map(run, scenarios)
    if 1 in codes:
        return 1
    return 2 if 2 in codes else 0


def _parse_matrix(text: str) -> np.ndarray:
    try:
        matrix = np.asarray(json.loads(text), dtype=float)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse matrix from {text!r}: {exc}") from exc
    return matrix


def check_command(args: argparse.Namespace) -> int:
    """Run one inline check through ``_run_check``; print its JSON report, exit 0 iff it passed.

    Errors name the option; ``--point`` is both the start state and the target.
    """
    name, keys, _ = _CHECK_COMMANDS[args.check]
    point = _build_state("replicator", args.point.split(","), "--point")
    check = _check_values({"name": name, **{key: getattr(args, key) for key in keys}}, "--")
    matrix = getattr(args, "matrix", None)  # the linear landscape of `check ess`
    kind = None if matrix is None else dynamics.Replicator(Linear(_parse_matrix(matrix)))
    result = _run_check(check, kind, point, point, None)
    print(json.dumps({"check": args.check, "pass": result["pass"], "report": result["metrics"]},
                     indent=2))
    return 0 if result["pass"] else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexdyn",
        description="Simulate simplex population dynamics and verify their geometric structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run JSON scenario configs")
    sim.add_argument("--config", nargs="+", required=True, help="scenario config path(s)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--format", choices=("csv", "json"), default="csv", help="trajectory format")
    sim.add_argument("--jobs", type=int, default=1, help="run configs concurrently")
    sim.add_argument("--quiet", action="store_true", help="suppress progress lines")

    chk = sub.add_parser("check", help="run a single inline check")
    chk_sub = chk.add_subparsers(dest="check", required=True)

    for command, (name, keys, text) in _CHECK_COMMANDS.items():
        cmd = chk_sub.add_parser(command, help=text)
        cmd.add_argument("--point", required=True, help='a simplex point, e.g. "1/3,1/3,1/3"')
        if name == "ess":
            cmd.add_argument("--matrix", required=True, help='payoff matrix, e.g. "[[-1,2],[0,1]]"')
        for key in keys:
            value_type, default = _CHECKS[name][1][key]
            text, _, parse = _VALUE_TYPES[value_type]
            hint = "" if default is None else f" (default: {default})"
            cmd.add_argument(f"--{key}", type=parse, default=default, required=default is None,
                             help=f"{value_type}: {text}{hint}")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate_command(args)
        return check_command(args)
    except SimplexDynError as exc:
        _line(sys.stderr, f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

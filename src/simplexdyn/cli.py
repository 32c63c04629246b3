"""Command-line interface: scenario simulation and one-shot checks.

``simulate`` runs JSON-configured scenarios and writes a trajectory file
plus a JSON check report into the output directory; ``check`` runs a single
analysis from inline arguments and prints a JSON report on stdout.

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
    validate_simplex,
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

_CHECK_NAMES = (
    "ess",
    "coupled_ess",
    "denorm_ess",
    "lyapunov",
    "fisher_theorem",
    "gradient_consistency",
    "localize",
)


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


def _build_landscape(payload, field: str) -> Landscape:
    if not isinstance(payload, dict):
        raise ConfigError(f"field '{field}' must be an object describing a landscape")
    kind = payload.get("type")
    try:
        if kind == "linear":
            return Linear(np.asarray(_require(payload, "matrix"), dtype=float))
        if kind == "log_linear":
            return LogLinear(
                np.asarray(_require(payload, "matrix"), dtype=float),
                np.asarray(_require(payload, "offset"), dtype=float),
            )
        if kind == "scaled":
            return Scaled(
                base=_build_landscape(_require(payload, "base"), f"{field}.base"),
                factor=float(_require(payload, "factor")),
            )
    except (TypeError, ValueError, SimplexDynError) as exc:
        raise ConfigError(f"invalid landscape in field '{field}': {exc}") from exc
    raise ConfigError(
        f"field '{field}' has unknown landscape type {kind!r} "
        "(expected 'linear', 'log_linear', or 'scaled')"
    )


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


def _build_state(kind_name: str, payload, field: str):
    try:
        if kind_name == "coupled_replicator":
            if not isinstance(payload, dict) or "p" not in payload or "q" not in payload:
                raise ConfigError(f"field '{field}' must be an object with 'p' and 'q'")
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

    name = _require(config, "name")
    if not isinstance(name, str) or not name:
        raise ConfigError("field 'name' must be a non-empty string")

    kind_name = _require(config, "kind")
    if kind_name not in _KIND_NAMES:
        raise ConfigError(
            f"field 'kind' has unknown value {kind_name!r} "
            f"(expected one of {sorted(_KIND_NAMES)})"
        )

    landscape_cfg = _require(config, "landscape")
    if kind_name == "coupled_replicator":
        if not isinstance(landscape_cfg, dict) or "f" not in landscape_cfg or "g" not in landscape_cfg:
            raise ConfigError("field 'landscape' must contain 'f' and 'g' for coupled dynamics")
        f = _build_landscape(landscape_cfg["f"], "landscape.f")
        g = _build_landscape(landscape_cfg["g"], "landscape.g")
        kind = dynamics.CoupledReplicator(f, g)
    else:
        land = _build_landscape(landscape_cfg, "landscape")
        if kind_name == "ecological":
            kind = dynamics.Ecological(land)
        else:
            kind = _KIND_NAMES[kind_name](land)

    initial = _build_state(kind_name, _require(config, "initial_state"), "initial_state")
    target = None
    if config.get("target") is not None:
        target = _build_state(kind_name, config["target"], "target")

    dt = _require(config, "dt")
    if not isinstance(dt, (int, float)) or not np.isfinite(dt) or dt <= 0:
        raise ConfigError(f"field 'dt' must be a positive number, got {dt!r}")
    steps = _require(config, "steps")
    if not isinstance(steps, int) or steps < 1:
        raise ConfigError(f"field 'steps' must be a positive integer, got {steps!r}")

    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("field 'checks' must be a list")
    for entry in checks:
        if not isinstance(entry, dict) or entry.get("name") not in _CHECK_NAMES:
            raise ConfigError(
                f"each check must be an object whose 'name' is one of {_CHECK_NAMES}, got {entry!r}"
            )

    outputs = config.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("field 'outputs' must be an object")
    for key in outputs:
        if key not in ("trajectory_csv", "report_json"):
            raise ConfigError(
                f"unknown key 'outputs.{key}' (expected 'trajectory_csv' or 'report_json')"
            )
    trajectory_file = outputs.get("trajectory_csv", f"{name}_trajectory.csv")
    report_file = outputs.get("report_json", f"{name}_report.json")

    return Scenario(
        name=name,
        kind=kind,
        initial=initial,
        target=target,
        dt=float(dt),
        steps=steps,
        checks=checks,
        trajectory_file=trajectory_file,
        report_file=report_file,
    )


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _csv_header(traj: dynamics.Trajectory) -> list[str]:
    n = traj.states.shape[1]
    if traj.split is not None:
        cols = [f"x_{i + 1}" for i in range(traj.split)]
        cols += [f"y_{j + 1}" for j in range(n - traj.split)]
    else:
        cols = [f"x_{i + 1}" for i in range(n)]
    return ["t"] + cols + [
        "mean_fitness",
        "fitness_variance",
        "divergence_to_target",
        "state_total",
    ]


def write_trajectory_csv(path: str, traj: dynamics.Trajectory) -> None:
    """Write one row per recorded step with 17-significant-digit floats."""
    d = traj.diagnostics
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_csv_header(traj)) + "\n")
        for k in range(len(traj)):
            row = (
                [traj.times[k]]
                + list(traj.states[k])
                + [
                    d.mean_fitness[k],
                    d.fitness_variance[k],
                    d.divergence_to_target[k],
                    d.state_total[k],
                ]
            )
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_trajectory_json(path: str, traj: dynamics.Trajectory) -> None:
    d = traj.diagnostics
    payload = {
        "columns": _csv_header(traj),
        "times": [float(t) for t in traj.times],
        "states": [[float(v) for v in row] for row in traj.states],
        "mean_fitness": [float(v) for v in d.mean_fitness],
        "fitness_variance": [float(v) for v in d.fitness_variance],
        "divergence_to_target": [
            None if np.isnan(v) else float(v) for v in d.divergence_to_target
        ],
        "state_total": [float(v) for v in d.state_total],
        "truncated": traj.truncated,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Scenario checks
# ---------------------------------------------------------------------------


def _ess_metrics(report: analysis.EssReport) -> dict:
    metrics = {
        "is_ess": report.is_ess,
        "min_margin": report.min_margin,
        "samples_tested": report.samples_tested,
        "radius": report.radius,
        "indeterminate": report.indeterminate,
    }
    if report.parallel_samples is not None:
        metrics["parallel_samples"] = report.parallel_samples
    return metrics


def _localize_metrics(point: SimplexPoint, h: float, tol: float) -> tuple[bool, dict]:
    """Localize KL at ``point``; pass when the diagonal is 1/x_i within ``tol``."""
    report = localize_divergence(kl_formula, point, h)
    err = float(np.max(np.abs(report.metric.diag - metric_at(point).diag)))
    return bool(err <= tol), {
        "diag": [float(v) for v in report.metric.diag],
        "sign": report.sign,
        "max_offdiag": report.max_offdiag,
        "max_error": err,
        "tol": tol,
    }


def _check_point(check: dict, scenario: Scenario, field: str) -> SimplexPoint:
    """Simplex point for a check: explicit 'point', else the scenario target/initial."""
    if "point" in check:
        return validate_simplex(_coerce_array(check["point"], f"{field}.point"))
    state = scenario.initial
    if isinstance(state, SimplexPoint):
        return state
    raise ConfigError(f"check '{field}' needs an explicit 'point' for this scenario kind")


def _run_check(check: dict, scenario: Scenario, traj: dynamics.Trajectory) -> dict:
    name = check["name"]
    if name == "lyapunov":
        if scenario.target is None:
            raise ConfigError("lyapunov check requires the scenario to set a target")
        report = analysis.lyapunov_monitor(traj, scenario.target)
        drift = report.final_value - report.initial_value
        passed = report.monotone
        if check.get("require_converged", False):
            passed = passed and report.converged
        if "max_drift" in check:
            passed = passed and abs(drift) <= float(check["max_drift"])
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
        return {"name": name, "pass": bool(passed), "metrics": metrics}

    if name in ("ess", "coupled_ess", "denorm_ess"):
        radius = float(check.get("radius", 0.05))
        samples = int(check.get("samples", 500))
        seed = int(check.get("seed", 0))
        expect = bool(check.get("expect", True))
        if scenario.target is None:
            raise ConfigError(f"{name} check requires the scenario to set a target")
        kind = scenario.kind
        if name == "ess":
            if not isinstance(scenario.target, SimplexPoint):
                raise ConfigError("ess check requires a simplex target")
            land = kind.f if hasattr(kind, "f") else kind.g
            report = analysis.ess_check(scenario.target, land, radius, samples, seed)
        elif name == "coupled_ess":
            if not isinstance(kind, dynamics.CoupledReplicator) or not isinstance(
                scenario.target, CoupledState
            ):
                raise ConfigError("coupled_ess check requires coupled dynamics and target")
            report = analysis.coupled_ess_check(
                scenario.target.pop1, scenario.target.pop2, kind.f, kind.g, radius, samples, seed
            )
        else:
            if not isinstance(scenario.target, OrthantPoint):
                raise ConfigError("denorm_ess check requires an orthant target")
            report = analysis.denormalized_ess_check(
                scenario.target, kind.f, radius, samples, seed
            )
        passed = bool(report.is_ess == expect)
        return {"name": name, "pass": passed, "metrics": _ess_metrics(report)}

    if name == "fisher_theorem":
        tol = float(check.get("tol", 1e-5))
        residual = analysis.fisher_theorem_check(traj)
        return {
            "name": name,
            "pass": bool(residual <= tol),
            "metrics": {"residual": residual, "tol": tol},
        }

    if name == "gradient_consistency":
        tol = float(check.get("tol", 1e-10))
        probes = int(check.get("probes", 100))
        seed = int(check.get("seed", 0))
        point = _check_point(check, scenario, name)
        if "grad" in check:
            grad = _coerce_array(check["grad"], f"{name}.grad")
        else:
            land = scenario.kind.f if hasattr(scenario.kind, "f") else scenario.kind.g
            grad = evaluate_landscape(land, point.coords)
        residual = analysis.gradient_consistency_check(point, grad, probes, seed)
        return {
            "name": name,
            "pass": bool(residual <= tol),
            "metrics": {"residual": residual, "tol": tol, "probes": probes},
        }

    if name == "localize":
        h = float(check.get("h", 1e-3))
        tol = float(check.get("tol", 1e-4))
        passed, metrics = _localize_metrics(_check_point(check, scenario, name), h, tol)
        return {"name": name, "pass": passed, "metrics": metrics}

    raise ConfigError(f"unknown check name {name!r}")


def run_scenario(
    config_path: str, out_dir: str, fmt: str = "csv", quiet: bool = False
) -> int:
    """Load, integrate, check, and write one scenario.  Returns the exit code."""
    try:
        scenario = load_scenario(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        os.makedirs(out_dir, exist_ok=True)
        traj = dynamics.integrate(
            scenario.kind, scenario.initial, scenario.dt, scenario.steps, target=scenario.target
        )
        trajectory_file = scenario.trajectory_file
        if fmt == "json" and trajectory_file.endswith(".csv"):
            trajectory_file = trajectory_file[: -len(".csv")] + ".json"
        trajectory_path = os.path.join(out_dir, trajectory_file)
        if fmt == "json":
            write_trajectory_json(trajectory_path, traj)
        else:
            write_trajectory_csv(trajectory_path, traj)
        checks = [_run_check(check, scenario, traj) for check in scenario.checks]
        report = {
            "scenario": scenario.name,
            "checks": checks,
            "truncated": traj.truncated,
        }
        if traj.failure is not None:
            report["failure"] = traj.failure
        report_path = os.path.join(out_dir, scenario.report_file)
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except SimplexDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not quiet:
        for check in checks:
            status = "pass" if check["pass"] else "FAIL"
            print(f"{scenario.name}: {check['name']}: {status}")
        print(f"{scenario.name}: wrote {trajectory_path} and {report_path}")
    if traj.truncated:
        if not quiet:
            print(f"{scenario.name}: truncated ({traj.failure})", file=sys.stderr)
        return 1
    if any(not check["pass"] for check in checks):
        return 2
    return 0


# ---------------------------------------------------------------------------
# One-shot checks
# ---------------------------------------------------------------------------


def _parse_matrix(text: str) -> np.ndarray:
    try:
        matrix = np.asarray(json.loads(text), dtype=float)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse matrix from {text!r}: {exc}") from exc
    if matrix.ndim != 2:
        raise ConfigError(f"matrix must be 2-d, got shape {matrix.shape}")
    return matrix


def _emit(report: dict, quiet: bool) -> None:
    del quiet  # the JSON report is the only stdout payload either way
    print(json.dumps(report, indent=2))


def check_command(args: argparse.Namespace) -> int:
    """Run one inline check and print its JSON report; exit 0 iff it passed."""
    if args.check == "ess":
        candidate = validate_simplex(_coerce_array(args.point.split(","), "--point"))
        f = Linear(_parse_matrix(args.matrix))
        report = analysis.ess_check(candidate, f, args.radius, args.samples, args.seed)
        payload = {"check": "ess", "pass": report.is_ess, "report": _ess_metrics(report)}
        _emit(payload, args.quiet)
        return 0 if report.is_ess else 2

    if args.check == "localize":
        point = validate_simplex(_coerce_array(args.point.split(","), "--point"))
        passed, metrics = _localize_metrics(point, args.h, args.tol)
        _emit({"check": "localize", "pass": passed, "report": metrics}, args.quiet)
        return 0 if passed else 2

    if args.check == "gradient":
        point = validate_simplex(_coerce_array(args.point.split(","), "--point"))
        grad = _coerce_array(args.grad.split(","), "--grad")
        residual = analysis.gradient_consistency_check(point, grad, args.probes, args.seed)
        passed = residual <= args.tol
        payload = {
            "check": "gradient",
            "pass": passed,
            "report": {"residual": residual, "probes": args.probes, "tol": args.tol},
        }
        _emit(payload, args.quiet)
        return 0 if passed else 2

    raise ConfigError(f"unknown check {args.check!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


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

    ess = chk_sub.add_parser("ess", help="sampled evolutionary stability check")
    ess.add_argument("--matrix", required=True, help='payoff matrix as JSON, e.g. "[[-1,2],[0,1]]"')
    ess.add_argument("--point", required=True, help='candidate, e.g. "0.5,0.5"')
    ess.add_argument("--radius", type=float, default=0.05)
    ess.add_argument("--samples", type=int, default=500)
    ess.add_argument("--seed", type=int, default=0)
    ess.add_argument("--quiet", action="store_true")

    loc = chk_sub.add_parser("localize", help="localize the KL divergence at a point")
    loc.add_argument("--point", required=True, help='evaluation point, e.g. "0.5,0.5"')
    loc.add_argument("--h", type=float, default=1e-3, help="central-difference step")
    loc.add_argument("--tol", type=float, default=1e-4, help="allowed deviation from 1/x_i")
    loc.add_argument("--quiet", action="store_true")

    grad = chk_sub.add_parser("gradient", help="metric-gradient consistency check")
    grad.add_argument("--point", required=True, help='evaluation point, e.g. "1/3,1/3,1/3"')
    grad.add_argument("--grad", required=True, help='Euclidean potential gradient, e.g. "1,2,3"')
    grad.add_argument("--probes", type=int, default=100)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--tol", type=float, default=1e-10)
    grad.add_argument("--quiet", action="store_true")

    return parser


def _scan_output_collisions(configs: list) -> None:
    """Refuse to run configs whose outputs would overwrite each other."""
    seen: dict = {}
    for path in configs:
        try:
            scenario = load_scenario(path)
        except ConfigError:
            continue  # run_scenario will report it properly
        for out in (scenario.trajectory_file, scenario.report_file):
            if out in seen and seen[out] != path:
                raise ConfigError(
                    f"configs {seen[out]!r} and {path!r} both write output {out!r}"
                )
            seen[out] = path


def _simulate_command(args: argparse.Namespace) -> int:
    configs = list(args.config)
    if len(configs) > 1:
        _scan_output_collisions(configs)
    if len(configs) > 1 and args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(
                pool.map(
                    run_scenario,
                    configs,
                    [args.out] * len(configs),
                    [args.format] * len(configs),
                    [args.quiet] * len(configs),
                )
            )
    else:
        codes = [run_scenario(path, args.out, args.format, args.quiet) for path in configs]
    if any(code == 1 for code in codes):
        return 1
    if any(code == 2 for code in codes):
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate_command(args)
        return check_command(args)
    except SimplexDynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: scenario simulation and one-shot checks.

``simulate`` loads each JSON scenario config once (every config level rejects
unknown keys) and writes a trajectory file plus a JSON check report into the
output directory; ``check`` runs a single check from inline options and
prints a JSON report on stdout.  Both run checks through ``_run_check``: a
``check`` option is the config key of the same name.

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

_ESS_KEYS = {"radius": 0.05, "samples": 500, "seed": 0, "expect": True}

#: The keys each check accepts besides 'name', with their defaults (None: no
#: default, the key is optional).  Any other key is a configuration error.
_CHECK_KEYS = {
    "ess": _ESS_KEYS,
    "coupled_ess": _ESS_KEYS,
    "denorm_ess": _ESS_KEYS,
    "lyapunov": {"require_converged": False, "max_drift": None},
    "fisher_theorem": {"tol": 1e-5},
    "gradient_consistency": {"point": None, "grad": None, "probes": 100, "seed": 0, "tol": 1e-10},
    "localize": {"point": None, "h": 1e-3, "tol": 1e-4},
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

    dt = _require(config, "dt")
    if not isinstance(dt, (int, float)) or not np.isfinite(dt) or dt <= 0:
        raise ConfigError(f"field 'dt' must be a positive number, got {dt!r}")
    steps = _require(config, "steps")
    if not isinstance(steps, int) or steps < 1:
        raise ConfigError(f"field 'steps' must be a positive integer, got {steps!r}")

    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("field 'checks' must be a list")
    for i, entry in enumerate(checks):
        if not isinstance(entry, dict) or entry.get("name") not in tuple(_CHECK_KEYS):
            raise ConfigError(
                f"each check must be an object whose 'name' is one of {tuple(_CHECK_KEYS)}, "
                f"got {entry!r}"
            )
        _reject_unknown(entry, ("name", *_CHECK_KEYS[entry["name"]]), f"checks[{i}]")

    outputs = config.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("field 'outputs' must be an object")
    _reject_unknown(outputs, ("trajectory_csv", "report_json"), "outputs")
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

    ``traj`` is None for the ``check`` subcommand, whose checks never read it.
    """
    name = check["name"]
    check = {**_CHECK_KEYS[name], **check}
    if name == "lyapunov":
        if target is None:
            raise ConfigError("lyapunov check requires the scenario to set a target")
        report = analysis.lyapunov_monitor(traj, target)
        drift = report.final_value - report.initial_value
        passed = report.monotone
        if check["require_converged"]:
            passed = passed and report.converged
        if check["max_drift"] is not None:
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

    elif name in ("ess", "coupled_ess", "denorm_ess"):
        radius = float(check["radius"])
        samples = int(check["samples"])
        seed = int(check["seed"])
        expect = bool(check["expect"])
        if target is None:
            raise ConfigError(f"{name} check requires the scenario to set a target")
        if name == "ess":
            if not isinstance(target, SimplexPoint):
                raise ConfigError("ess check requires a simplex target")
            land = dynamics._blocks(kind, None)[0][1]
            report = analysis.ess_check(target, land, radius, samples, seed)
        elif name == "coupled_ess":
            if not isinstance(kind, dynamics.CoupledReplicator) or not isinstance(
                target, CoupledState
            ):
                raise ConfigError("coupled_ess check requires coupled dynamics and target")
            report = analysis.coupled_ess_check(
                target.pop1, target.pop2, kind.f, kind.g, radius, samples, seed
            )
        else:
            if not isinstance(target, OrthantPoint):
                raise ConfigError("denorm_ess check requires an orthant target")
            report = analysis.denormalized_ess_check(target, kind.f, radius, samples, seed)
        passed = report.is_ess == expect
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
        tol = float(check["tol"])
        residual = analysis.fisher_theorem_check(traj)
        passed, metrics = residual <= tol, {"residual": residual, "tol": tol}

    else:  # gradient_consistency and localize: at the check's point, else the start state
        if check["point"] is not None:
            point = validate_simplex(_coerce_array(check["point"], f"{name}.point"))
        elif isinstance(initial, SimplexPoint):
            point = initial
        else:
            raise ConfigError(f"check '{name}' needs an explicit 'point' for this scenario kind")
        tol = float(check["tol"])
        if name == "gradient_consistency":
            if check["grad"] is not None:
                grad = _coerce_array(check["grad"], f"{name}.grad")
            else:
                grad = evaluate_landscape(dynamics._blocks(kind, None)[0][1], point.coords)
            probes = int(check["probes"])
            residual = analysis.gradient_consistency_check(point, grad, probes, int(check["seed"]))
            passed, metrics = residual <= tol, {"residual": residual, "tol": tol, "probes": probes}
        else:
            # pass when the localized diagonal is 1/x_i within tol
            report = localize_divergence(kl_formula, point, float(check["h"]))
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
    try:
        scenario = load_scenario(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _run_loaded(scenario, out_dir, fmt, quiet)


def _run_loaded(scenario: Scenario, out_dir: str, fmt: str, quiet: bool) -> int:
    """Integrate, check, and write one loaded scenario.  Returns the exit code."""
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


def _simulate_command(args: argparse.Namespace) -> int:
    """Load every config once, refuse colliding outputs, then run the loaded scenarios."""
    scenarios, codes, seen = [], [], {}
    for path in args.config:
        try:
            scenario = load_scenario(path)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            codes.append(1)
            continue
        for out in (scenario.trajectory_file, scenario.report_file):
            if seen.setdefault(out, path) != path:
                raise ConfigError(f"configs {seen[out]!r} and {path!r} both write output {out!r}")
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
    if matrix.ndim != 2:
        raise ConfigError(f"matrix must be 2-d, got shape {matrix.shape}")
    return matrix


def check_command(args: argparse.Namespace) -> int:
    """Run one inline check through ``_run_check``; print its JSON report, exit 0 iff it passed.

    Errors name the option; ``--point`` is both the start state and the target.
    """
    point = validate_simplex(_coerce_array(args.point.split(","), "--point"))
    kind = None
    if args.check == "ess":
        check = {"name": "ess", "radius": args.radius, "samples": args.samples, "seed": args.seed}
        kind = dynamics.Replicator(Linear(_parse_matrix(args.matrix)))
    elif args.check == "localize":
        check = {"name": "localize", "h": args.h, "tol": args.tol}
    else:
        grad = _coerce_array(args.grad.split(","), "--grad").tolist()
        check = {"name": "gradient_consistency", "grad": grad, "probes": args.probes,
                 "seed": args.seed, "tol": args.tol}
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

    ess = chk_sub.add_parser("ess", help="sampled evolutionary stability check")
    ess.add_argument("--matrix", required=True, help='payoff matrix as JSON, e.g. "[[-1,2],[0,1]]"')
    ess.add_argument("--point", required=True, help='candidate, e.g. "0.5,0.5"')
    ess.add_argument("--radius", type=float, default=_ESS_KEYS["radius"])
    ess.add_argument("--samples", type=int, default=_ESS_KEYS["samples"])
    ess.add_argument("--seed", type=int, default=_ESS_KEYS["seed"])
    ess.add_argument("--quiet", action="store_true")

    loc = chk_sub.add_parser("localize", help="localize the KL divergence at a point")
    loc.add_argument("--point", required=True, help='evaluation point, e.g. "0.5,0.5"')
    loc_keys = _CHECK_KEYS["localize"]
    loc.add_argument("--h", type=float, default=loc_keys["h"], help="central-difference step")
    loc.add_argument(
        "--tol", type=float, default=loc_keys["tol"], help="allowed deviation from 1/x_i"
    )
    loc.add_argument("--quiet", action="store_true")

    grad = chk_sub.add_parser("gradient", help="metric-gradient consistency check")
    grad.add_argument("--point", required=True, help='evaluation point, e.g. "1/3,1/3,1/3"')
    grad.add_argument("--grad", required=True, help='Euclidean potential gradient, e.g. "1,2,3"')
    grad_keys = _CHECK_KEYS["gradient_consistency"]
    grad.add_argument("--probes", type=int, default=grad_keys["probes"])
    grad.add_argument("--seed", type=int, default=grad_keys["seed"])
    grad.add_argument("--tol", type=float, default=grad_keys["tol"])
    grad.add_argument("--quiet", action="store_true")

    return parser


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

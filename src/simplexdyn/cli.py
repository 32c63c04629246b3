"""Command-line interface: scenario simulation and one-shot checks.

``simulate`` loads each JSON scenario config once, refusing unknown keys at
every level, bad values and bad output names before anything is written, and
writes a trajectory file plus a JSON check report into the output directory;
``check`` runs one check from inline options and prints its JSON report.  One
table, ``_CHECKS``, gives each check key its type and default: a ``check``
option is the config key of the same name.  Every number from outside is read
by ``_typed``, and a check of either command meets the rules of
``_check_entry`` before it runs through ``_run_check``.

Exit codes: 0 when everything passed, 2 when a requested check failed, and
1 for configuration or runtime errors (a check that fails at run time writes
nothing for its scenario; an integration truncated by positivity loss still
writes its partial outputs, with ``"truncated": true``).  A usage error that
argparse refuses (``--jobs abc``, a missing ``--out``) also exits 2, with a
usage line on stderr.

All outputs are deterministic functions of the configuration: CSV floats
are printed with 17 significant digits and report JSON carries no
timestamps or machine information, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
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
    _is_count,
    _is_positive,
    _is_real,
    _reals,
)
from .divergence import kl_formula
from .errors import ConfigError, EmptyTrajectoryError, SimplexDynError
from .geometry import localize_divergence, metric_at, shahshahani_gradient

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
    "count": ("an integer >= 1", _is_count, int),
    "seed": ("an integer >= 0", lambda v: _is_count(v, least=0), int),
    "positive": ("a finite number > 0", _is_positive, float),
    "tolerance": ("a finite number >= 0", lambda v: type(v) is float and 0.0 <= v < np.inf, float),
    "vector": ("comma-separated finite numbers or fractions", None, lambda text: text.split(",")),
}

#: ``check`` subcommands: the check each runs, the check keys it takes as options, its help.
_CHECK_COMMANDS = {
    "ess": ("ess", ("radius", "samples", "seed"), "sampled evolutionary stability check"),
    "localize": ("localize", ("h", "tol"), "localize the KL divergence at a point"),
    "gradient": ("gradient_consistency", ("grad", "probes", "seed", "tol"), "gradient consistency"),
}

#: The per-step diagnostic columns of a trajectory file, after the time and state columns.
_DIAGNOSTICS = ("mean_fitness", "fitness_variance", "divergence_to_target", "state_total")

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


def _require(payload: dict, key: str, prefix: str = ""):
    if key not in payload:
        raise ConfigError(f"missing required field '{prefix}{key}'")
    return payload[key]


def _reject_unknown(payload: dict, allowed, prefix: str) -> None:
    """Raise a ConfigError naming the key path (``prefix`` + key) of the first key not allowed."""
    for key in payload:
        if key not in allowed:
            raise ConfigError(f"unknown key '{prefix}{key}' (expected one of {sorted(allowed)})")


def _build_landscape(payload, prefix: str) -> Landscape:
    """``payload`` as a landscape; errors name ``prefix`` + key (``landscape.`` or ``--``)."""
    field = prefix.rstrip(".")
    if not isinstance(payload, dict):
        raise ConfigError(f"field '{field}' must be an object describing a landscape")
    kind = payload.get("type")
    if kind not in tuple(_LANDSCAPE_KEYS):  # by equality: a JSON list is not hashable
        raise ConfigError(f"field '{field}' has unknown landscape type {kind!r} "
                          f"(expected one of {sorted(_LANDSCAPE_KEYS)})")
    _reject_unknown(payload, _LANDSCAPE_KEYS[kind], prefix)
    if kind == "scaled":
        base = _build_landscape(_require(payload, "base", prefix), prefix + "base.")
        factor = _require(payload, "factor", prefix)
        return Scaled(base, _typed("positive", factor, prefix + "factor"))
    rows = _require(payload, "matrix", prefix)
    matrix = [_typed("vector", r, f"{prefix}matrix") for r in rows] if type(rows) is list else []
    if not matrix or not matrix[0].size or any(row.size != matrix[0].size for row in matrix):
        raise ConfigError(f"'{prefix}matrix' must be a list of equal non-empty rows, got {rows!r}")
    if kind == "linear":
        return Linear(matrix)
    offset = _typed("vector", _require(payload, "offset", prefix), prefix + "offset")
    return _refused(prefix + "offset", LogLinear, matrix, offset)


def _coerce_entry(value):
    """A number string like '0.5' or a fraction string like '1/3' as a float; any other as given."""
    if not isinstance(value, str):
        return value
    num, slash, den = value.partition("/")
    return float(num) / float(den) if slash else float(value)


def _typed(value_type: str, value, field: str):
    """``value`` as a ``value_type`` of ``_VALUE_TYPES``; errors name the config field or option.

    Every number from outside is read here: a vector through ``_coerce_entry`` and ``_reals``.
    """
    if value_type == "vector":
        if not isinstance(value, list):
            raise ConfigError(f"{field!r} must be a list of numbers, got {value!r}")
        try:
            entries = [_coerce_entry(v) for v in value]
        except (ValueError, ZeroDivisionError) as exc:  # 'abc', '1/0'
            raise ConfigError(f"invalid number in {field!r}: {exc}") from exc
        vector = _reals(entries, repr(field), ConfigError, finite=True)
        if vector.ndim != 1:
            raise ConfigError(f"{field!r} must be a flat list of numbers, got {value!r}")
        return vector
    if value_type in ("positive", "tolerance") and type(value) is int and _is_real(value):
        value = float(value)  # "tol": 1 is 1.0
    text, valid, _ = _VALUE_TYPES[value_type]
    if not valid(value):
        raise ConfigError(f"{field!r} must be {text}, got {value!r}")
    return value


def _pair(payload, keys: tuple, field: str, build) -> list:
    """The two values of the coupled object ``payload``: ``build(value, f"{field}.{key}")`` each."""
    if not isinstance(payload, dict) or any(key not in payload for key in keys):
        raise ConfigError(f"field '{field}' must be an object with '{keys[0]}' and '{keys[1]}'")
    _reject_unknown(payload, keys, f"{field}.")
    return [build(payload[key], f"{field}.{key}") for key in keys]


def _build_state(state_type: type, payload, field: str):
    """``payload`` as a ``state_type`` of a kind; errors name ``field``."""
    if state_type is CoupledState:
        return CoupledState(*_pair(payload, ("p", "q"), field,
                                   functools.partial(_build_state, SimplexPoint)))
    return _refused(field, state_type, _typed("vector", payload, field))


def _refused(where: str, call, *args):
    """``call(*args)``, with a library refusal raised again as a ConfigError naming ``where``."""
    try:
        return call(*args)
    except SimplexDynError as exc:
        raise ConfigError(f"'{where}': {exc}") from exc


def _fit_start(kind, initial, target, field: str) -> None:
    """Refuse a landscape or a target that does not fit the start ``initial``.

    A landscape error names ``field`` (``.f``/``.g`` added when coupled), a target error 'target'.
    """
    start, split = dynamics._state_vector(kind, initial, "start")
    payoffs = dynamics._payoffs(kind, start.size, split)
    for name in (".f", ".g") if split else ("",):
        _refused(field + name, next, payoffs)
    if target is not None:
        _refused("target", dynamics._target_vector, kind, target, start.size, split)


def _check_entry(entry, prefix: str, kind, initial, target, steps: Optional[int]) -> dict:
    """The entry ``_run_check`` runs: every key typed or defaulted, or a ConfigError naming a rule.

    A ``point`` not given is the start ``initial``, and a ``grad`` not given the payoff there.
    Errors name ``prefix`` + key (``checks[i].`` in a config, ``--`` for an option) or the check;
    the load rules refuse a check that would fail on any trajectory of ``kind``.
    """
    where = prefix.rstrip(".")
    if not isinstance(entry, dict) or entry.get("name") not in tuple(_CHECKS):
        raise ConfigError(f"each check must be an object whose 'name' is one of "
                          f"{tuple(_CHECKS)}, got {entry!r}")
    name = entry["name"]
    needs, keys = _CHECKS[name]
    _reject_unknown(entry, ("name", *keys), prefix)
    check = {"name": name}
    for key, (value_type, default) in keys.items():
        given = key in entry and not (entry[key] is None and default is None)
        check[key] = _typed(value_type, entry[key], prefix + key) if given else default
    if needs is not None and (target is None or not isinstance(target, needs)):
        raise ConfigError(f"'{where}' needs a target ({needs.__name__}), got {target!r}")
    if "point" in keys:
        point = check["point"] = (initial if check["point"] is None else
                                  _build_state(SimplexPoint, entry["point"], prefix + "point"))
        if not isinstance(point, SimplexPoint):
            raise ConfigError(f"'{where}' needs a 'point': the start is not a simplex point")

    if name == "fisher_theorem":
        _refused(where, analysis._require_fisher_kind, kind)
        if steps < 2:
            raise ConfigError(f"'{where}': a central difference needs 'steps' >= 2, got {steps}")
    elif name == "gradient_consistency" and check["grad"] is None:
        if kind.state_type is CoupledState:
            raise ConfigError(f"'{where}' needs a 'grad': a coupled payoff acts on the other "
                              "population, not on the point")
        pay = _refused(where, next, dynamics._payoffs(kind, point.dim, None))
        check["grad"] = pay(point.coords)
    elif name == "gradient_consistency":
        _refused(prefix + "grad", shahshahani_gradient, point, check["grad"])
    elif name == "localize" and not check["h"] < point.coords.min():
        raise ConfigError(f"'{prefix}h' must be smaller than the point's smallest "
                          f"coordinate {point.coords.min()}, got {check['h']}")
    return check


def _read_json(stream, what: str):
    """The JSON value of text ``stream``, or a ConfigError: '<what> is not valid JSON: <reason>'."""
    try:
        return json.load(stream)
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, a 4,301-digit int; too deep
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = _read_json(fh, f"config {path!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
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
        kind = dynamics.CoupledReplicator(*_pair(
            landscape_cfg, ("f", "g"), "landscape",
            lambda value, where: _build_landscape(value, where + ".")))
    else:
        kind = _KIND_NAMES[kind_name](_build_landscape(landscape_cfg, "landscape."))

    initial = _build_state(kind.state_type, _require(config, "initial_state"), "initial_state")
    target = None
    if config.get("target") is not None:
        target = _build_state(kind.state_type, config["target"], "target")
    _fit_start(kind, initial, target, "landscape")

    dt = _typed("positive", _require(config, "dt"), "dt")
    steps = _typed("count", _require(config, "steps"), "steps")
    _refused("dt", dynamics._check_steps, dt, steps)

    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("field 'checks' must be a list")
    checks = [_check_entry(entry, f"checks[{i}].", kind, initial, target, steps)
              for i, entry in enumerate(checks)]

    outputs = config.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("field 'outputs' must be an object")
    _reject_unknown(outputs, ("trajectory_csv", "report_json"), "outputs.")
    files = {"trajectory_csv": f"{name}_trajectory.csv", "report_json": f"{name}_report.json",
             **outputs}
    for key, file in files.items():
        if not isinstance(file, str) or file in ("", ".", "..") or file != os.path.basename(file):
            where = f"outputs.{key}" if key in outputs else "name"
            raise ConfigError(f"{where!r} must give a file name with no directory, got {file!r}")

    return Scenario(name=name, kind=kind, initial=initial, target=target, dt=dt, steps=steps,
                    checks=checks, trajectory_file=files["trajectory_csv"],
                    report_file=files["report_json"])


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def _csv_header(traj: dynamics.Trajectory) -> list[str]:
    n = traj.states.shape[1]
    split = n if traj.split is None else traj.split
    cols = [f"x_{i + 1}" for i in range(split)] + [f"y_{j + 1}" for j in range(n - split)]
    return ["t", *cols, *_DIAGNOSTICS]


def _output(path: str):
    """``path`` opened to write UTF-8 text with '\\n' line ends: every output file opens here."""
    return open(path, "w", encoding="utf-8", newline="\n")


def write_trajectory_csv(path: str, traj: dynamics.Trajectory) -> None:
    """Write one row per recorded step with 17-significant-digit floats."""
    diagnostics = (getattr(traj.diagnostics, column) for column in _DIAGNOSTICS)
    table = np.column_stack((traj.times, traj.states, *diagnostics))
    with _output(path) as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", header=",".join(_csv_header(traj)),
                   comments="")


def _json_list(values: np.ndarray) -> list:
    """``values`` as nested lists, each non-finite entry None: JSON has no NaN or Infinity."""
    finite = np.isfinite(values)
    return values.tolist() if finite.all() else np.where(finite, values, None).tolist()


def _write_json(stream, payload: dict) -> None:
    """Dump ``payload`` to ``stream`` as indented strict JSON (no NaN or Infinity) and a newline."""
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def write_trajectory_json(path: str, traj: dynamics.Trajectory) -> None:
    diagnostics = {column: _json_list(getattr(traj.diagnostics, column)) for column in _DIAGNOSTICS}
    with _output(path) as fh:
        _write_json(fh, {"columns": _csv_header(traj), "times": _json_list(traj.times),
                         "states": _json_list(traj.states), **diagnostics,
                         "truncated": traj.truncated})


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _report_metrics(report) -> dict:
    """An ``analysis`` report's fields that are neither arrays nor None, in declaration order."""
    values = ((field.name, getattr(report, field.name)) for field in fields(report))
    return {key: v for key, v in values if v is not None and not isinstance(v, np.ndarray)}


def _run_check(check: dict, kind, target, traj: Optional[dynamics.Trajectory]) -> dict:
    """One check on a scenario's parts: its ``{"name", "pass", "metrics"}`` entry.

    ``check`` comes from ``_check_entry``, which typed it, filled its defaults and applied its
    rules; ``traj`` is None for the ``check`` subcommand, whose checks never read it.
    """
    name = check["name"]
    if name == "lyapunov":
        report = analysis.lyapunov_monitor(traj, target)
        passed = report.monotone
        if check["require_converged"]:
            passed = passed and report.converged
        if check["max_drift"] is not None:
            passed = passed and abs(report.drift) <= check["max_drift"]
        metrics = _report_metrics(report)

    elif name in ("ess", "coupled_ess", "denorm_ess"):
        with np.errstate(over="ignore", invalid="ignore"):  # a payoff past float64: a null margin
            report = analysis._ess(kind, target, check["radius"], check["samples"], check["seed"])
        passed = report.is_ess == check["expect"]
        metrics = _report_metrics(report)

    elif name == "fisher_theorem":
        try:
            residual = analysis.fisher_theorem_check(traj)
        except EmptyTrajectoryError:  # a run truncated before its third row has no residual
            residual = None
        passed = residual is not None and residual <= check["tol"]
        metrics = {"residual": residual, "tol": check["tol"]}

    else:  # gradient_consistency and localize, at the check's point
        point, tol = check["point"], check["tol"]
        if name == "gradient_consistency":
            probes = check["probes"]
            residual = analysis.gradient_consistency_check(point, check["grad"], probes,
                                                           check["seed"])
            passed, metrics = residual <= tol, {"residual": residual, "tol": tol, "probes": probes}
        else:
            # pass when the localized diagonal is 1/x_i within tol
            report = localize_divergence(kl_formula, point, check["h"])
            err = float(np.max(np.abs(report.metric.diag - metric_at(point).diag)))
            passed, metrics = err <= tol, {
                "diag": _json_list(report.metric.diag),
                "sign": report.sign,
                "max_offdiag": report.max_offdiag,
                "max_error": err,
                "tol": tol,
            }
    # each non-finite number None, as _json_list writes arrays: JSON has no NaN or Infinity
    metrics = {key: None if isinstance(v, float) and not math.isfinite(v) else v
               for key, v in metrics.items()}
    return {"name": name, "pass": bool(passed), "metrics": metrics}


# ---------------------------------------------------------------------------
# Commands and entry point
# ---------------------------------------------------------------------------


def run_scenario(config_path: str, out_dir: str, fmt: str = "csv", quiet: bool = False) -> int:
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
    """Write ``text`` and its newline in one write, which no other writer can split, then flush."""
    stream.write(text + "\n")
    stream.flush()


def _run_loaded(scenario: Scenario, out_dir: str, fmt: str, quiet: bool) -> tuple[int, list]:
    """Integrate, check, and write one loaded scenario: its exit code and its console lines.

    The output directory is made first, so an ``out_dir`` that cannot be made costs no run.
    No file is written until every check has run, so a check that fails at run time leaves no
    file.  A line is a (stream name, text) pair; the caller writes them, in config order.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        traj = dynamics.integrate(
            scenario.kind, scenario.initial, scenario.dt, scenario.steps, target=scenario.target
        )
        checks = [_run_check(check, scenario.kind, scenario.target, traj)
                  for check in scenario.checks]
        report = {"scenario": scenario.name, "checks": checks, "truncated": traj.truncated}
        if traj.failure is not None:
            report["failure"] = traj.failure
        trajectory_path, report_path = (os.path.join(out_dir, file)
                                        for file in _output_files(scenario, fmt))
        (write_trajectory_json if fmt == "json" else write_trajectory_csv)(trajectory_path, traj)
        with _output(report_path) as fh:
            _write_json(fh, report)
    except (SimplexDynError, OSError, MemoryError) as exc:  # an OSError names its path
        return 1, [("stderr", f"error: {exc}")]
    lines = []
    if not quiet:
        for check in checks:
            status = "pass" if check["pass"] else "FAIL"
            lines.append(("stdout", f"{scenario.name}: {check['name']}: {status}"))
        lines.append(("stdout", f"{scenario.name}: wrote {trajectory_path} and {report_path}"))
        if traj.truncated:
            lines.append(("stderr", f"{scenario.name}: truncated ({traj.failure})"))
    if traj.truncated:
        return 1, lines
    return (2 if any(not check["pass"] for check in checks) else 0), lines


def _simulate_command(args: argparse.Namespace) -> int:
    """Load every config once, refuse colliding outputs, then run the loaded scenarios."""
    jobs = _typed("count", args.jobs, "--jobs")
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
    if len(scenarios) > 1 and jobs > 1:
        import concurrent.futures  # only a pool needs it; it is slow to import
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(scenarios))) as pool:
            results = list(pool.map(run, scenarios))
    else:
        results = map(run, scenarios)
    for code, lines in results:
        codes.append(code)
        for stream, text in lines:
            _line(getattr(sys, stream), text)
    if 1 in codes:
        return 1
    return 2 if 2 in codes else 0


def check_command(args: argparse.Namespace) -> int:
    """Run one inline check through ``_check_entry`` and ``_run_check``; print its JSON report.

    Exits 0 iff it passed.  Errors name the option; ``--point`` is both the start state and
    the target, and ``check ess`` reads ``--matrix`` as a linear landscape.
    """
    name, keys, _ = _CHECK_COMMANDS[args.check]
    point = _build_state(SimplexPoint, args.point.split(","), "--point")
    kind = None
    if name == "ess":
        matrix = _read_json(io.StringIO(args.matrix), "'--matrix'")
        kind = dynamics.Replicator(_build_landscape({"type": "linear", "matrix": matrix}, "--"))
        _fit_start(kind, point, None, "--matrix")
    entry = {"name": name, **{key: getattr(args, key) for key in keys}}
    check = _check_entry(entry, "--", kind, point, point, None)
    result = _run_check(check, kind, point, None)
    _write_json(sys.stdout, {"check": args.check, "pass": result["pass"],
                             "report": result["metrics"]})
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
    sim.add_argument("--jobs", type=int, default=1, help="worker processes (an integer >= 1)")
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
    except (SimplexDynError, MemoryError) as exc:
        _line(sys.stderr, f"error: {exc}")
        return 1

"""Seeded inputs, operations and output checks of the three benchmark workloads.

Each workload is a fixed list of *slots*.  A slot fixes what kind of work an
operation does (field kind, landscape type, dimension, step count, checks);
it has ``VARIANTS`` seeded variants that differ only in their numbers.  The
workload seed picks one variant per slot, so every seed runs the same amount
of work, and every output has a reference pinned in ``golden.json`` by
``make_golden.py`` at the commit that defined the benchmark.

The package is reached only through ``simplexdyn`` (the public API) and
``simplexdyn.cli`` (``run_scenario`` and the ``simulate`` command), passed in
as ``sd`` so the tracer can rebind names on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Pinned variants per slot; the workload seed picks one for each slot.
VARIANTS = 4
#: Numbers are checked against their reference as |got - ref| <= ABS_TOL + REL_TOL * |ref|.
ABS_TOL = 1e-9
REL_TOL = 1e-7
#: Exponential-coordinate final states must match the direct flow this closely
#: (the package's own EXPFAM_TOL).
EXPFAM_TOL = 1e-6
#: ESS entries are compared on these fields only: a vectorised sampler may
#: draw its samples in another order, which moves the margins but not these.
ESS_FIELDS = ("is_ess", "samples_tested", "radius")
ESS_CHECKS = ("ess", "coupled_ess", "denorm_ess")

WORKLOADS = ("cli_scenarios", "long_flows", "ensemble_checks")
BUNDLED = ("hawk_dove.json", "rps_conservation.json")


@dataclass
class Op:
    """One timed operation: ``run()`` is timed, ``record(result)`` is not.

    ``record`` turns the result into the plain dict that is compared with the
    pinned reference; ``last`` keeps the latest result for ops that compare
    against it.
    """

    case: str
    group: str
    run: Callable
    record: Callable
    last: object = None


# ---------------------------------------------------------------------------
# Seeded numbers
# ---------------------------------------------------------------------------


def case_rng(case: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(case.encode()))


def pick_variants(seed: int, slots: list) -> list:
    """Case ids ``<slot>.v<k>`` for one pass, one variant per slot, from ``seed``."""
    picks = np.random.default_rng(seed).integers(0, VARIANTS, len(slots))
    return [f"{slot}.v{int(k)}" for slot, k in zip(slots, picks)]


def interior(rng, n: int, conc: float = 6.0) -> np.ndarray:
    x = rng.dirichlet(np.full(n, conc))
    x = np.maximum(x, 0.2 / n)
    return x / x.sum()


def near(rng, x: np.ndarray, scale: float = 0.3) -> np.ndarray:
    """A start near ``x``: a zero-sum step of size ``scale * min(x)``."""
    z = rng.standard_normal(x.size)
    z -= z.mean()
    y = x + z * (scale * x.min() / np.linalg.norm(z))
    return y / y.sum()


def ess_matrix(rng, n: int, rest: np.ndarray, skew: float = 1.0) -> np.ndarray:
    """Payoff matrix with ``rest`` as interior ESS.

    A negative definite part plus ``skew`` times an antisymmetric part, then
    shifted by u 1^T + 1 u^T (which leaves x.Ax unchanged on tangent
    vectors) so that A rest is a constant vector.  skew = 0 keeps A symmetric.
    """
    m = rng.standard_normal((n, n))
    a = -(m @ m.T / n + 0.5 * np.eye(n))
    k = rng.standard_normal((n, n))
    a = a + skew * (k - k.T) / 2.0
    v = a @ rest
    return a - v[:, None] - v[None, :]


def zero_sum_bimatrix(rng, n: int, p: np.ndarray, q: np.ndarray):
    """Bimatrix pair (B, C) with interior rest point (p, q) and C = -B^T up to offsets."""
    b = rng.standard_normal((n, n))
    c = -b.T
    b = b - (b @ q)[:, None]
    c = c - (c @ p)[:, None]
    return b, c


def decay_loglinear(rng, n: int, rest: np.ndarray, rate: float = 1.0):
    """(A, b) with f(x) = A log x + b = A (log x - log rest), A negative definite."""
    m = rng.standard_normal((n, n))
    a = -rate * (np.eye(n) + 0.3 * m @ m.T / n)
    return a, -a @ np.log(rest)


class CustomPayoff:
    """Black-box payoff for ``Custom`` landscapes: r - B x, optionally against the other population."""

    def __init__(self, matrix: np.ndarray, offset: np.ndarray):
        self.matrix = matrix
        self.offset = offset

    def __call__(self, x, other=None):
        return self.offset - self.matrix @ (x if other is None else other)


def logistic_custom(rng, n: int, rest: np.ndarray) -> CustomPayoff:
    m = rng.standard_normal((n, n))
    b = np.eye(n) + 0.3 * m @ m.T / n
    return CustomPayoff(b, b @ rest)


# ---------------------------------------------------------------------------
# Comparison with the pinned references
# ---------------------------------------------------------------------------


def _close(got: float, ref: float) -> bool:
    if np.isnan(ref):
        return bool(np.isnan(got))
    if np.isinf(ref):
        return got == ref
    return abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref)


_STEP = re.compile(r"step (\d+)")


def compare(ref, got, path: str = "") -> list:
    """Differences between a pinned record and a new one, driven by the pinned keys.

    Keys the new record adds are ignored.  Bools, ints and strings must be
    equal, floats close; a ``failure`` text is compared on its step number only.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        errors = []
        for key, value in ref.items():
            if key not in got:
                errors.append(f"{path}.{key}: missing")
            elif key == "failure":
                want, have = _STEP.search(value), _STEP.search(str(got[key]))
                if want and have and want.group(1) != have.group(1):
                    errors.append(f"{path}.failure: step {have.group(1)} != {want.group(1)}")
            else:
                errors += compare(value, got[key], f"{path}.{key}")
        return errors
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [e for i, (r, g) in enumerate(zip(ref, got)) for e in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if _close(float(got), ref) else [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def _floats(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _flow_record(traj) -> dict:
    d = traj.diagnostics
    return {
        "steps_done": len(traj) - 1,
        "truncated": bool(traj.truncated),
        "final_state": _floats(traj.final_state),
        "final_divergence": float(d.divergence_to_target[-1]),
        "final_mean_fitness": float(d.mean_fitness[-1]),
    }


def _ess_record(report) -> dict:
    return {"is_ess": bool(report.is_ess), "samples_tested": int(report.samples_tested)}


# ---------------------------------------------------------------------------
# cli_scenarios: fresh-process `simplexdyn simulate` calls
# ---------------------------------------------------------------------------

# (slot, kind, landscape, n, steps, checks, trajectory format)
CLI_SLOTS = [
    ("c01", "replicator", "linear", 3, 2000, ("lyapunov", "ess"), "csv"),
    ("c02", "ecological", "scaled", 10, 2000, ("lyapunov",), "json"),
    ("c03", "lotka_volterra", "blowup", 2, 2000, ("denorm_ess",), "csv"),
    ("c04", "shifted_lotka_volterra", "log_linear", 3, 4000, ("denorm_ess", "lyapunov"), "csv"),
    ("c05", "coupled_replicator", "linear", 2, 2000, ("coupled_ess", "lyapunov"), "json"),
    ("c06", "replicator", "symmetric", 10, 5000,
     ("fisher_theorem", "gradient_consistency", "localize", "lyapunov"), "csv"),
    ("c07", "replicator", "hawk_dove", 2, 2000, ("ess", "lyapunov"), "json"),
    ("c08", "lotka_volterra", "log_linear", 3, 3000, ("lyapunov",), "json"),
    ("c09", "lotka_volterra", "blowup", 10, 2000, ("lyapunov",), "json"),
    ("c10", "ecological", "scaled_log", 3, 10000, ("lyapunov", "ess"), "csv"),
    ("c11", "shifted_lotka_volterra", "log_linear", 10, 2000, ("lyapunov",), "csv"),
    ("c12", "replicator", "log_linear", 3, 2000, ("gradient_consistency", "localize"), "csv"),
]
#: Invocations of one pass, in order: bundled scenarios by file name and
#: generated slots; a tuple is one `--jobs 2` call whose configs share a format.
CLI_CALLS = [BUNDLED[0], "c01", "c02", "c03", BUNDLED[1], "c04", "c05", "c06",
             ("c07", "c08"), "c09", "c10", ("c11", "c12")]


def _matrix(a) -> list:
    return [_floats(row) for row in np.asarray(a)]


def cli_config(case: str, steps_cap: Optional[int] = None) -> tuple:
    """Generated scenario config for ``case`` (``<slot>.v<k>``) and its trajectory format."""
    slot = case.split(".")[0]
    _, kind, land, n, steps, checks, fmt = next(s for s in CLI_SLOTS if s[0] == slot)
    rng = case_rng(case)
    rest = interior(rng, n)
    dt = 0.01
    if kind == "coupled_replicator":
        q = interior(rng, n)
        b, c = zero_sum_bimatrix(rng, n, rest, q)
        landscape = {"f": {"type": "linear", "matrix": _matrix(b)},
                     "g": {"type": "linear", "matrix": _matrix(c)}}
        start = {"p": _floats(near(rng, rest)), "q": _floats(near(rng, q))}
        target = {"p": _floats(rest), "q": _floats(q)}
    elif land == "blowup":
        # Self-reinforcing growth with weak mutual inhibition: the state
        # overflows within a few steps and then turns NaN, which truncates the run.
        a = np.diag(rng.uniform(0.8, 1.2, n)) - np.abs(rng.standard_normal((n, n))) * 0.05
        landscape = {"type": "linear", "matrix": _matrix(a)}
        start = _floats(rng.uniform(0.8, 1.2, n))
        target = _floats(np.ones(n))
        dt = 0.1
    elif kind in ("lotka_volterra", "shifted_lotka_volterra"):
        scale = rng.uniform(0.5, 2.0)
        a, off = decay_loglinear(rng, n, rest * scale)
        landscape = {"type": "log_linear", "matrix": _matrix(a), "offset": _floats(off)}
        start = _floats(near(rng, rest) * scale * rng.uniform(0.7, 1.3))
        target = _floats(rest * scale)
    else:
        if land == "hawk_dove":
            v, cost = rng.uniform(0.5, 1.5), rng.uniform(2.0, 3.0)
            a = np.array([[(v - cost) / 2.0, v], [0.0, v / 2.0]])
            rest = np.array([v / cost, 1.0 - v / cost])
        elif land in ("log_linear", "scaled_log"):
            a, off = decay_loglinear(rng, n, rest)
        else:
            a = ess_matrix(rng, n, rest, skew=0.0 if land == "symmetric" else 1.0)
        if land in ("log_linear", "scaled_log"):
            base = {"type": "log_linear", "matrix": _matrix(a), "offset": _floats(off)}
        else:
            base = {"type": "linear", "matrix": _matrix(a)}
        if land.startswith("scaled"):
            landscape = {"type": "scaled", "base": base, "factor": float(rng.uniform(0.5, 2.0))}
        else:
            landscape = base
        start = _floats(near(rng, rest))
        target = _floats(rest)
    seed = int(rng.integers(0, 1000))
    check_cfg = {
        "lyapunov": {"name": "lyapunov"},
        "ess": {"name": "ess", "radius": float(0.5 * rest.min()), "samples": 300, "seed": seed},
        "coupled_ess": {"name": "coupled_ess", "radius": 0.05, "samples": 300, "seed": seed,
                        "expect": False},
        "denorm_ess": {"name": "denorm_ess", "radius": 0.05, "samples": 300, "seed": seed},
        "fisher_theorem": {"name": "fisher_theorem", "tol": 1e-3},
        "gradient_consistency": {"name": "gradient_consistency", "probes": 100, "seed": seed},
        "localize": {"name": "localize", "h": 1e-4, "tol": 1e-2},
    }
    config = {
        "name": case.replace(".", "_"),
        "kind": kind,
        "landscape": landscape,
        "initial_state": start,
        "target": target,
        "dt": dt,
        "steps": steps if steps_cap is None else min(steps, steps_cap),
        "checks": [check_cfg[c] for c in checks],
    }
    return config, fmt


def _cli_outputs(out_dir: str, prefix: Optional[str]) -> tuple:
    """(report dict, trajectory bytes) found in ``out_dir``.

    The report is the JSON object with a ``scenario`` key; the trajectory is
    the other file.  ``prefix`` selects one config's files in a shared
    directory; file names are not assumed beyond that.
    """
    report, trajectory = None, None
    for name in sorted(os.listdir(out_dir)):
        if prefix is not None and not name.startswith(prefix):
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            try:
                payload = json.loads(data)
            except ValueError:
                payload = None
            if isinstance(payload, dict) and "scenario" in payload:
                report = payload
                continue
        trajectory = data
    return report, trajectory


def _rows_written(trajectory: Optional[bytes], fmt: str) -> int:
    if not trajectory:
        return 0
    if fmt == "json":
        return len(json.loads(trajectory)["times"])
    return trajectory.count(b"\n") - 1


def _prune_report(report: Optional[dict]) -> Optional[dict]:
    if report is None:
        return None
    report = json.loads(json.dumps(report))
    for check in report.get("checks", []):
        if check.get("name") in ESS_CHECKS:
            check["metrics"] = {k: check["metrics"][k] for k in ESS_FIELDS}
    return report


def cli_ops(sd, cases: list, run_dir: str, python: str, env: dict,
            steps_cap: Optional[int] = None, in_process: bool = False) -> list:
    """One pass of `simulate` invocations (or, in-process, `cli.run_scenario` calls)."""
    cases = dict(zip([s[0] for s in CLI_SLOTS], cases))
    ops = []
    for call in CLI_CALLS:
        slots = call if isinstance(call, tuple) else (call,)
        entries = []  # (case, config path, file name prefix or None, format)
        for slot in slots:
            if slot in BUNDLED and steps_cap is not None:
                continue  # bundled scenarios cannot be shortened
            if slot in BUNDLED:
                entries.append((slot, os.path.join("scenarios", slot), None, "csv"))
                continue
            config, fmt = cli_config(cases[slot], steps_cap)
            path = os.path.join(run_dir, "configs", config["name"] + ".json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            prefix = config["name"] + "_" if len(slots) > 1 else None
            entries.append((cases[slot], path, prefix, fmt))
        if not entries:
            continue
        fmt = entries[0][3]
        out_dir = os.path.join(run_dir, "out", "_".join(e[0] for e in entries))
        ops.append(_cli_op(sd, entries, fmt, out_dir, python, env, in_process))
    return ops


def _cli_op(sd, entries, fmt, out_dir, python, env, in_process) -> Op:
    paths = [e[1] for e in entries]
    command = [python, "-m", "simplexdyn", "simulate", "--config", *paths,
               "--out", out_dir, "--format", fmt, "--quiet"]
    if len(entries) > 1:
        command += ["--jobs", "2"]

    def run():
        shutil.rmtree(out_dir, ignore_errors=True)
        if in_process:
            return [sd.cli.run_scenario(p, out_dir, fmt, True) for p in paths]
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        return proc.returncode

    def record(result):
        rec = {}
        codes = result if isinstance(result, list) else [None] * len(entries)
        for (case, _, prefix, fmt), code in zip(entries, codes):
            report, trajectory = _cli_outputs(out_dir, prefix)
            rec[case] = {
                "sha256": hashlib.sha256(trajectory).hexdigest() if trajectory else None,
                "steps_done": _rows_written(trajectory, fmt) - 1,
                "report": _prune_report(report),
            }
            if code is not None:
                rec[case]["exit"] = code
        if not isinstance(result, list):
            rec["exit"] = result
        return rec

    return Op("+".join(e[0] for e in entries), "simulate", run, record)


def cli_reference(record: dict, golden: dict) -> dict:
    """The pinned part of ``golden`` that an invocation's ``record`` must match.

    Golden entries are pinned per config; a multi-config call exits with the
    most severe code of its configs (1 before 2 before 0).
    """
    ref = {}
    codes = []
    for case, got in record.items():
        if case == "exit":
            continue
        entry = golden[case]
        codes.append(entry["exit"])
        ref[case] = {k: entry[k] for k in ("sha256", "steps_done", "report")}
        if "exit" in got:
            ref[case]["exit"] = entry["exit"]
    if "exit" in record:
        ref["exit"] = 1 if 1 in codes else (2 if 2 in codes else 0)
    return ref


# ---------------------------------------------------------------------------
# long_flows: long in-process trajectories
# ---------------------------------------------------------------------------

# (slot, kind, landscape, n, steps), all at dt = 0.01.  "xf"/"cxf" are the
# exponential-coordinate solvers, each preceded by a direct twin run on the
# same inputs.
FLOW_SLOTS = [
    ("rep.lin.n3", "replicator", "linear", 3, 2000),
    ("rep.lin.n10", "replicator", "linear", 10, 1500),
    ("rep.lin.n50", "replicator", "linear", 50, 1000),
    ("rep.log.n10", "replicator", "log_linear", 10, 1500),
    ("rep.cus.n3", "replicator", "custom", 3, 1500),
    ("eco.scl.n3", "ecological", "scaled", 3, 1500),
    ("eco.scl.n50", "ecological", "scaled_log", 50, 1000),
    ("lv.log.n3", "lotka_volterra", "log_linear", 3, 1500),
    ("lv.lin.n10", "lotka_volterra", "linear", 10, 1500),
    ("lv.cus.n50", "lotka_volterra", "custom", 50, 1000),
    ("slv.log.n10", "shifted_lotka_volterra", "log_linear", 10, 1500),
    ("slv.scl.n3", "shifted_lotka_volterra", "scaled", 3, 1500),
    ("cpl.lin.n3", "coupled_replicator", "linear", 3, 1500),
    ("cpl.lin.n10", "coupled_replicator", "linear", 10, 1000),
    ("xf.lin.n3", "exp_family", "linear", 3, 100),
    ("xf.lin.n10", "exp_family", "linear", 10, 100),
    ("xf.lin.n50", "exp_family", "linear", 50, 100),
    ("cxf.lin.n3", "coupled_exp_family", "linear", 3, 60),
    ("cxf.lin.n10", "coupled_exp_family", "linear", 10, 60),
]


def flow_inputs(sd, case: str) -> tuple:
    """(kind, start, target, dt, steps, landscape) of a long-flow case."""
    slot = case.rsplit(".", 1)[0]
    _, kind, land, n, steps = next(s for s in FLOW_SLOTS if s[0] == slot)
    dt = 0.01
    rng = case_rng(case)
    rest = interior(rng, n)
    if kind in ("coupled_replicator", "coupled_exp_family"):
        q = interior(rng, n)
        b, c = zero_sum_bimatrix(rng, n, rest, q)
        f, g = sd.Linear(b), sd.Linear(c)
        start = sd.CoupledState(sd.SimplexPoint(near(rng, rest)), sd.SimplexPoint(near(rng, q)))
        target = sd.CoupledState(sd.SimplexPoint(rest), sd.SimplexPoint(q))
        return sd.CoupledReplicator(f, g), start, target, dt, steps, (f, g)
    orthant = kind in ("lotka_volterra", "shifted_lotka_volterra")
    scale = rng.uniform(0.5, 2.0) if orthant else 1.0
    if land in ("log_linear", "scaled_log"):
        landscape = sd.LogLinear(*decay_loglinear(rng, n, rest * scale))
    elif land == "custom":
        landscape = sd.Custom(logistic_custom(rng, n, rest * scale))
    elif orthant and land == "linear":
        m = rng.standard_normal((n, n))
        landscape = sd.Linear(-(np.eye(n) + 0.3 * m @ m.T / n))
    else:
        landscape = sd.Linear(ess_matrix(rng, n, rest))
    if land.startswith("scaled"):
        landscape = sd.Scaled(landscape, float(rng.uniform(0.5, 2.0)))
    if orthant:
        start = sd.OrthantPoint(near(rng, rest) * scale * rng.uniform(0.7, 1.3))
        target = sd.OrthantPoint(rest * scale)
    else:
        start, target = sd.SimplexPoint(near(rng, rest)), sd.SimplexPoint(rest)
    kinds = {"replicator": sd.Replicator, "exp_family": sd.Replicator,
             "ecological": sd.Ecological, "lotka_volterra": sd.LotkaVolterra,
             "shifted_lotka_volterra": sd.ShiftedLotkaVolterra}
    return kinds[kind](landscape), start, target, dt, steps, landscape


def flow_ops(sd, cases: list, steps_cap: Optional[int] = None) -> list:
    ops = []
    for case in cases:
        kind, start, target, dt, steps, land = flow_inputs(sd, case)
        if steps_cap is not None:
            steps = min(steps, steps_cap)
        solver = case.split(".")[0]
        if solver in ("xf", "cxf"):
            twin = Op(case + ".direct", "flow", _integrate_call(sd, kind, start, dt, steps, target),
                      _flow_record)
            ops.append(twin)
            if solver == "xf":
                def call(land=land, start=start, dt=dt, steps=steps, target=target):
                    return sd.exp_family_solver(land, start, dt, steps, target=target)
            else:
                def call(land=land, start=start, dt=dt, steps=steps, target=target):
                    return sd.coupled_exp_family_solver(*land, start, dt, steps, target=target)
            ops.append(Op(case, "expfam", call, _expfam_record(twin)))
        else:
            ops.append(Op(case, "flow", _integrate_call(sd, kind, start, dt, steps, target),
                          _flow_record))
    return ops


def _integrate_call(sd, kind, start, dt, steps, target):
    return lambda: sd.integrate(kind, start, dt, steps, target=target)


def _expfam_record(twin: Op):
    def record(traj):
        rec = _flow_record(traj)
        direct = twin.last
        gap = float(np.max(np.abs(traj.final_state - direct.final_state)))
        rec["matches_direct"] = bool(gap <= EXPFAM_TOL and len(traj) == len(direct))
        return rec
    return record


# ---------------------------------------------------------------------------
# ensemble_checks: many short runs near interior rest points, and certificates
# ---------------------------------------------------------------------------

# Trajectory slots: (slot, game family, n, steps), each a short run plus
# lyapunov_monitor.  Certificate slots: (slot, check, argument).
ENSEMBLE_TRAJ = (
    [(f"hd{i}", "hawk_dove", 2, 300) for i in range(10)]
    + [(f"rps{i}", "rps", 3, 300) for i in range(10)]
    + [(f"coord{i}", "coordination", 2 + i % 2, 200) for i in range(6)]
    + [(f"rand{i}", "random", 2 + i % 4, 100 + 100 * (i % 5)) for i in range(16)]
    + [(f"sym{i}", "symmetric", 3 + i % 3, 300) for i in range(6)]
)
ENSEMBLE_CHECKS = [
    ("ess.hd", "ess", ("hawk_dove", 2)), ("ess.rps", "ess", ("rps", 3)),
    ("ess.rand", "ess", ("random", 5)), ("ess.coord", "ess", ("coordination", 3)),
    ("cess.a", "coupled_ess", 2), ("cess.b", "coupled_ess", 3),
    ("dess.a", "denorm_ess", 3), ("dess.b", "denorm_ess", 4),
    ("grad.a", "gradient", 3), ("grad.b", "gradient", 5),
    ("loc.n3", "localize", 3), ("loc.n10", "localize", 10), ("loc.n20", "localize", 20),
    ("fisher.a", "fisher", 3), ("fisher.b", "fisher", 5),
    ("orbit.a", "orbit", 3), ("orbit.b", "orbit", 4),
]


def game(rng, family: str, n: int) -> tuple:
    """(payoff matrix, interior rest point) of a game family near which runs start."""
    if family == "hawk_dove":
        v, cost = rng.uniform(0.5, 1.5), rng.uniform(2.0, 3.0)
        return np.array([[(v - cost) / 2.0, v], [0.0, v / 2.0]]), np.array([v / cost, 1 - v / cost])
    if family == "rps":  # rock-paper-scissors with a stabilising diagonal
        eps, win = rng.uniform(0.1, 0.5), rng.uniform(1.0, 1.5)
        a = np.array([[-eps, -1.0, win], [win, -eps, -1.0], [-1.0, win, -eps]])
        return a, np.full(3, 1.0 / 3.0)
    if family == "coordination":  # the interior rest point repels
        diag = rng.uniform(0.5, 2.0, n)
        return np.diag(diag), (1.0 / diag) / np.sum(1.0 / diag)
    rest = interior(rng, n)
    return ess_matrix(rng, n, rest, skew=0.0 if family == "symmetric" else 1.0), rest


def _lyapunov_record(result) -> dict:
    traj, report = result
    return {
        "steps_done": len(traj) - 1,
        "truncated": bool(traj.truncated),
        "monotone": bool(report.monotone),
        "converged": bool(report.converged),
        "final_value": float(report.final_value),
        "max_increase": float(report.max_increase),
    }


def _trajectory(sd, case: str, steps_cap: Optional[int]) -> Op:
    _, family, n, steps = next(s for s in ENSEMBLE_TRAJ if s[0] == case.rsplit(".", 1)[0])
    rng = case_rng(case)
    a, rest = game(rng, family, n)
    kind, x0, target = sd.Replicator(sd.Linear(a)), sd.SimplexPoint(near(rng, rest)), sd.SimplexPoint(rest)
    steps = steps if steps_cap is None else min(steps, steps_cap)

    def run():
        traj = sd.integrate(kind, x0, 0.05, steps, target=target)
        return traj, sd.lyapunov_monitor(traj, target)

    return Op(case, "trajectory", run, _lyapunov_record)


def _certificate(sd, case: str) -> Op:
    _, what, arg = next(c for c in ENSEMBLE_CHECKS if c[0] == case.rsplit(".", 1)[0])
    rng = case_rng(case)
    seed = int(rng.integers(0, 1 << 16))
    if what == "ess":
        a, rest = game(rng, *arg)
        land, point, radius = sd.Linear(a), sd.SimplexPoint(rest), 0.5 * float(rest.min())
        return Op(case, "certificate", lambda: sd.ess_check(point, land, radius, 1000, seed),
                  _ess_record)
    if what == "coupled_ess":
        p, q = interior(rng, arg), interior(rng, arg)
        b, c = zero_sum_bimatrix(rng, arg, p, q)
        f, g = sd.Linear(b + 0.1 * rng.standard_normal((arg, arg))), sd.Linear(c)
        pp, qq = sd.SimplexPoint(p), sd.SimplexPoint(q)
        radius = 0.5 * float(min(p.min(), q.min()))
        return Op(case, "certificate",
                  lambda: sd.coupled_ess_check(pp, qq, f, g, radius, 1000, seed), _ess_record)
    if what == "denorm_ess":
        rest = interior(rng, arg)
        land = sd.Linear(ess_matrix(rng, arg, rest))
        cand = sd.OrthantPoint(rest * rng.uniform(0.5, 2.0))
        radius = 0.5 * float(cand.coords.min())
        return Op(case, "certificate",
                  lambda: sd.denormalized_ess_check(cand, land, radius, 1000, seed), _ess_record)
    if what == "gradient":
        point, grad = sd.SimplexPoint(interior(rng, arg)), rng.standard_normal(arg)
        return Op(case, "certificate",
                  lambda: sd.gradient_consistency_check(point, grad, 200, seed),
                  lambda r: {"pass": bool(r <= 1e-10)})
    if what == "localize":
        point = sd.SimplexPoint(interior(rng, arg, conc=50.0))

        def record(report):
            err = np.abs(report.metric.diag * point.coords - 1.0)
            return {"sign": int(report.sign), "pass": bool(err.max() <= 1e-3),
                    "diag": _floats(report.metric.diag)}
        return Op(case, "certificate",
                  lambda: sd.localize_divergence(sd.kl_formula, point, 1e-4), record)
    if what == "fisher":
        # Input generation: a run of a symmetric game, whose potential rises
        # at the rate of the payoff variance.
        rest = interior(rng, arg)
        kind = sd.Replicator(sd.Linear(ess_matrix(rng, arg, rest, skew=0.0)))
        traj = sd.integrate(kind, sd.SimplexPoint(near(rng, rest)), 0.05, 300)
        return Op(case, "certificate", lambda: sd.fisher_theorem_check(traj),
                  lambda r: {"residual": float(r), "pass": bool(r <= 1e-3)})
    # orbit: a closed curve on the simplex against a shifted, finer sampling of it
    u, w = rng.standard_normal(arg), rng.standard_normal(arg)

    def curve(t):
        logits = np.outer(np.sin(t), u) + np.outer(np.cos(t), w)
        x = np.exp(logits - logits.max(axis=1, keepdims=True))
        return x / x.sum(axis=1, keepdims=True)

    reference = curve(np.linspace(0.0, 2.0 * np.pi, 1001))
    query = curve(np.linspace(0.0, 2.0 * np.pi, 200) + rng.uniform(0.0, 0.01))
    return Op(case, "certificate", lambda: sd.orbit_gap(query, reference),
              lambda r: {"gap": float(r)})


def ensemble_ops(sd, traj_cases: list, check_cases: list,
                 steps_cap: Optional[int] = None) -> list:
    """One pass: the short runs, with the certificates spread evenly among them."""
    checks = [_certificate(sd, case) for case in check_cases]
    every = -(-len(traj_cases) // max(len(checks), 1))
    ops = []
    for i, case in enumerate(traj_cases):
        ops.append(_trajectory(sd, case, steps_cap))
        if (i + 1) % every == 0 and checks:
            ops.append(checks.pop(0))
    return ops + checks


def slots(workload: str) -> list:
    """Slot names of a workload, in pass order (certificates after the ensemble runs)."""
    if workload == "cli_scenarios":
        return [s[0] for s in CLI_SLOTS]
    if workload == "long_flows":
        return [s[0] for s in FLOW_SLOTS]
    return [s[0] for s in ENSEMBLE_TRAJ] + [c[0] for c in ENSEMBLE_CHECKS]


def build_ops(sd, workload: str, cases: list, run_dir: str, python: str, env: dict,
              steps_cap: Optional[int] = None, in_process: bool = False) -> list:
    """Ops of one pass over ``cases`` (one per slot, as ``slots(workload)`` orders them)."""
    if workload == "cli_scenarios":
        return cli_ops(sd, cases, run_dir, python, env, steps_cap, in_process)
    if workload == "long_flows":
        return flow_ops(sd, cases, steps_cap)
    if workload == "ensemble_checks":
        split = len(ENSEMBLE_TRAJ)
        return ensemble_ops(sd, cases[:split], cases[split:], steps_cap)
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: Op):
    """Run ``op`` and keep its result for the ops that compare against it."""
    op.last = op.run()
    return op.last


def reference_for(workload: str, op: Op, record: dict, golden: dict) -> Optional[dict]:
    """Pinned record ``op`` must reproduce, or None if the golden file lacks it."""
    table = golden.get(workload, {})
    try:
        if workload == "cli_scenarios":
            return cli_reference(record, table)
        return table[op.case]
    except KeyError:
        return None

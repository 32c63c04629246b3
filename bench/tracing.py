"""Spans around calls into each simplexdyn module, and the per-layer metrics they give.

The tracer rebinds names as the calling module sees them (for example
``dynamics.evaluate_landscape`` or ``analysis.kl_formula``) and restores
them afterwards; no file of the package is edited.  A name that the package
no longer has is skipped, and the metrics that need it are reported absent.

Each span records its name, start, end, parent span and operation id, plus
a tag (kind and dimension, check name) and a unit count (steps, rows,
samples) taken from the call's arguments or result.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import time
from array import array
from typing import Callable, Optional

import numpy as np

_KIND_NAMES = {
    "Replicator": "replicator",
    "Ecological": "ecological",
    "LotkaVolterra": "lotka_volterra",
    "ShiftedLotkaVolterra": "shifted_lotka_volterra",
    "CoupledReplicator": "coupled_replicator",
}


class Tracer:
    """In-memory span recorder with reversible name rebinding."""

    def __init__(self):
        self.names: list = []
        self._index: dict = {}
        self.parent = array("q")
        self.name = array("i")
        self.tag = array("i")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.units = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self.current_op = -1
        self._undo: list = []
        self.missing: set = set()
        self.wrapped: set = set()

    def _id(self, text: str) -> int:
        if text not in self._index:
            self._index[text] = len(self.names)
            self.names.append(text)
        return self._index[text]

    def traced(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``measure(args, kwargs, result)`` gives (tag, units, aux)."""
        name_id = self._id(name)
        blank = self._id("")

        def wrapper(*args, **kwargs):
            sid = len(self.t0)
            self.parent.append(self._stack[-1])
            self.name.append(name_id)
            self.tag.append(blank)
            self.op.append(self.current_op)
            self.units.append(0.0)
            self.aux.append(0.0)
            self.t1.append(0.0)
            self._stack.append(sid)
            self.t0.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[sid] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                tag, units, aux = measure(args, kwargs, result)
                self.tag[sid] = self._id(tag)
                self.units[sid] = units
                self.aux[sid] = aux
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, measure=None, factory=None) -> None:
        """Rebind ``owner.attr`` to a traced version; skip names the package lacks."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        new = factory(fn) if factory is not None else self.traced(name, fn, measure)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, fn))
        self.wrapped.add(name)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def spans(self) -> "Spans":
        return Spans(self)

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), parent=np.asarray(self.parent),
            name=np.asarray(self.name), tag=np.asarray(self.tag), op=np.asarray(self.op),
            t0=np.asarray(self.t0), t1=np.asarray(self.t1), units=np.asarray(self.units),
            aux=np.asarray(self.aux),
        )


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _dim(state) -> int:
    return state.pop1.dim if hasattr(state, "pop1") else state.dim


def _flow(args, kwargs, traj):
    kind = _KIND_NAMES.get(type(args[0]).__name__, type(args[0]).__name__)
    return f"{kind}.n{_dim(args[1])}", len(traj) - 1, _arg(args, kwargs, 3, "steps")


def _solver(label: str, state_index: int):
    def measure(args, kwargs, traj):
        state = args[state_index]
        steps = _arg(args, kwargs, state_index + 2, "steps")
        return f"{label}.n{_dim(state)}", len(traj) - 1, steps
    return measure


def _rows(index: int):
    return lambda args, kwargs, result: ("", np.shape(args[index])[0], 0)


def _length(index: int):
    return lambda args, kwargs, result: ("", len(args[index]), 0)


def _orbit_rows(args, kwargs, result):
    stride = _arg(args, kwargs, 2, "stride") if len(args) > 2 or "stride" in kwargs else 1
    return "", -(-len(args[0]) // stride), 0


def _ess(label: str, index: int, key: str):
    return lambda args, kwargs, result: (label, _arg(args, kwargs, index, key), 0)


def install(tracer: Tracer, sd, custom_class) -> None:
    """Rebind every traced name: public calls and calls between modules."""
    dyn, ana, cli = sd.dynamics, sd.analysis, sd.cli
    plan = [
        # public calls the benchmark and the cli make
        ((sd, dyn), "integrate", "dynamics.integrate", _flow),
        ((sd,), "exp_family_solver", "dynamics.expfam", _solver("exp_family", 1)),
        ((sd,), "coupled_exp_family_solver", "dynamics.expfam", _solver("coupled_exp_family", 2)),
        ((sd,), "orbit_gap", "dynamics.orbit_gap", _orbit_rows),
        ((sd, ana), "lyapunov_monitor", "analysis.lyapunov", _length(0)),
        ((sd, ana), "ess_check", "analysis.ess", _ess("simplex", 3, "samples")),
        ((sd, ana), "coupled_ess_check", "analysis.ess", _ess("coupled", 5, "samples")),
        ((sd, ana), "denormalized_ess_check", "analysis.ess", _ess("denorm", 3, "samples")),
        ((sd, ana), "gradient_consistency_check", "analysis.gradient",
         lambda a, k, r: ("", _arg(a, k, 2, "probes"), 0)),
        ((sd, ana), "fisher_theorem_check", "analysis.fisher", _length(0)),
        ((sd, cli), "localize_divergence", "geometry.localize",
         lambda a, k, r: (f"n{_dim(_arg(a, k, 1, 'x'))}", 0, 0)),
        ((sd, ana, cli), "kl_formula", "divergence.kl_formula", None),
        ((cli,), "run_scenario", "cli.run_scenario", None),
        ((cli,), "load_scenario", "cli.load_scenario", None),
        ((cli,), "write_trajectory_csv", "cli.write_csv", _length(1)),
        ((cli,), "write_trajectory_json", "cli.write_json", _length(1)),
        ((cli,), "_run_check", "cli.run_check", lambda a, k, r: (a[0]["name"], 0, 0)),
        # calls one module makes into another, as the caller sees them
        ((dyn,), "evaluate_landscape", "core.payoff", None),
        ((dyn,), "evaluate_landscape_coupled", "core.payoff", None),
        ((dyn, ana), "evaluate_landscape_batch", "core.payoff_batch", _rows(1)),
        ((dyn, ana), "evaluate_landscape_coupled_batch", "core.payoff_batch", _rows(1)),
        ((dyn,), "logsumexp", "dynamics.logsumexp", None),
        ((dyn,), "_rk4_step", "dynamics.rk4_step", None),
        ((dyn,), "_diagnostics", "dynamics.diagnostics", _rows(1)),
        ((ana,), "_tangent_ball_samples", "analysis.sampling", None),
        ((ana,), "_orthant_ball_samples", "analysis.sampling", None),
        ((ana,), "inner_product", "geometry.inner_product", None),
        ((custom_class,), "__call__", "core.custom", None),
    ]
    for owners, attr, name, measure in plan:
        for owner in owners:
            tracer.patch(owner, attr, name, measure)

    def field_factory(make_field):
        def traced_make_field(*args, **kwargs):
            return tracer.traced("dynamics.field", make_field(*args, **kwargs))
        return traced_make_field

    tracer.patch(dyn, "_make_field", "dynamics.field", factory=field_factory)
    # A name is absent only if no owner had it.
    tracer.missing -= tracer.wrapped


class Spans:
    """Array view of recorded spans with self time (duration minus child coverage)."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.name = np.asarray(tracer.name, dtype=np.int64)
        self.tag = np.asarray(tracer.tag, dtype=np.int64)
        self.op = np.asarray(tracer.op, dtype=np.int64)
        self.t0 = np.asarray(tracer.t0)
        self.t1 = np.asarray(tracer.t1)
        self.units = np.asarray(tracer.units)
        self.aux = np.asarray(tracer.aux)
        self.dur = self.t1 - self.t0
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=self.dur.size)
        self.self_time = self.dur - covered
        self.keep = np.ones(self.dur.size, bool)

    def subset(self, keep: np.ndarray) -> "Spans":
        """The same spans, with metrics restricted to those where ``keep`` is true."""
        other = object.__new__(Spans)
        other.__dict__.update(self.__dict__)
        other.keep = keep
        return other

    def mask(self, name: str, tag: Optional[str] = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, bool)
        m = self.keep & (self.name == self.names.index(name))
        if tag is not None:
            m &= self.tag == (self.names.index(tag) if tag in self.names else -1)
        return m

    def with_parent(self, child: str, parent: str) -> np.ndarray:
        m = self.mask(child)
        parents = self.mask(parent)
        return m & np.where(self.parent >= 0, parents[np.maximum(self.parent, 0)], False)


def _ratio(num: float, den: float) -> Optional[float]:
    return float(num / den) if den > 0 else None


#: Metrics that are counts: reported from the workload's own pass, 0 when it
#: makes no such call.  All others are rates, which need samples.
COUNTS = (
    "core.payoff.calls", "core.custom.calls", "dynamics.rhs_evals", "dynamics.logsumexp.calls",
    "divergence.kl_formula.calls", "geometry.localize.divergence_calls",
    "geometry.inner_product.calls",
)
#: Span names each metric needs, by metric name prefix; if the tracer could
#: not bind one of them, the metric is absent.
NEEDS = {
    "cli.load_scenario": ("cli.load_scenario",),
    "cli.write_csv": ("cli.write_csv",),
    "cli.write_json": ("cli.write_json",),
    "cli.run_check": ("cli.run_check",),
    "cli.integrate_share": ("cli.run_scenario", "dynamics.integrate"),
    "core.payoff.": ("core.payoff",),
    "core.payoff_batch": ("core.payoff_batch",),
    "core.custom": ("core.custom",),
    "dynamics.rk4.us_per_step": ("dynamics.integrate",),
    "dynamics.rk4.self": ("dynamics.rk4_step",),
    "dynamics.field": ("dynamics.field",),
    "dynamics.rhs_evals": ("dynamics.field",),
    "dynamics.diagnostics": ("dynamics.diagnostics",),
    "dynamics.integrate.call_overhead": ("dynamics.integrate", "dynamics.rk4_step",
                                         "dynamics.diagnostics"),
    "dynamics.steps_done_ratio": ("dynamics.integrate",),
    "dynamics.expfam": ("dynamics.expfam",),
    "dynamics.logsumexp": ("dynamics.logsumexp",),
    "dynamics.orbit_gap": ("dynamics.orbit_gap",),
    "analysis.ess.us": ("analysis.ess",),
    "analysis.ess.sampling": ("analysis.ess", "analysis.sampling"),
    "analysis.lyapunov": ("analysis.lyapunov",),
    "analysis.gradient": ("analysis.gradient",),
    "analysis.fisher": ("analysis.fisher",),
    "divergence.kl_formula": ("divergence.kl_formula",),
    "geometry.localize.ms": ("geometry.localize",),
    "geometry.localize.divergence_calls": ("geometry.localize", "divergence.kl_formula"),
    "geometry.inner_product": ("geometry.inner_product",),
}
RK4_TAGS = [f"{k}.n{n}" for k in _KIND_NAMES.values() for n in (3, 10)] + ["replicator.n50"]
EXPFAM_TAGS = ["exp_family.n3", "exp_family.n10", "exp_family.n50",
               "coupled_exp_family.n3", "coupled_exp_family.n10"]
CHECK_NAMES = ("lyapunov", "ess", "coupled_ess", "denorm_ess", "fisher_theorem",
               "gradient_consistency", "localize")
LOCALIZE_DIMS = (3, 10, 20)


def layer_metrics(s: Spans) -> dict:
    """Per-layer metrics from one set of spans; None where there is nothing to measure."""
    us = 1e6
    m: dict = {}

    def per(name, tag=None, scale=us, use="dur", unit="units"):
        sel = s.mask(name, tag)
        times = (s.dur if use == "dur" else s.self_time)[sel].sum()
        den = sel.sum() if unit == "calls" else getattr(s, unit)[sel].sum()
        return None if den == 0 else float(times * scale / den)

    m["cli.load_scenario.us"] = per("cli.load_scenario", unit="calls")
    m["cli.write_csv.us_per_row"] = per("cli.write_csv")
    m["cli.write_json.us_per_row"] = per("cli.write_json")
    for check in CHECK_NAMES:
        m[f"cli.run_check.{check}.ms"] = per("cli.run_check", check, 1e3, unit="calls")
    inner = s.with_parent("dynamics.integrate", "cli.run_scenario")
    m["cli.integrate_share"] = _ratio(s.dur[inner].sum(), s.dur[s.mask("cli.run_scenario")].sum())

    m["core.payoff.calls"] = int(s.mask("core.payoff").sum())
    m["core.payoff.us_per_call"] = per("core.payoff", unit="calls")
    m["core.payoff_batch.us_per_row"] = per("core.payoff_batch")
    m["core.custom.calls"] = int(s.mask("core.custom").sum())

    for tag in RK4_TAGS:
        m[f"dynamics.rk4.us_per_step.{tag}"] = per("dynamics.integrate", tag)
    m["dynamics.rk4.self_us_per_step"] = per("dynamics.rk4_step", use="self", unit="calls")
    m["dynamics.field.self_us_per_call"] = per("dynamics.field", use="self", unit="calls")
    m["dynamics.rhs_evals"] = int(s.mask("dynamics.field").sum())
    m["dynamics.diagnostics.us_per_row"] = per("dynamics.diagnostics")
    m["dynamics.integrate.call_overhead_us"] = _call_overhead(s)
    runs = s.mask("dynamics.integrate") | s.mask("dynamics.expfam")
    m["dynamics.steps_done_ratio"] = _ratio(s.units[runs].sum(), s.aux[runs].sum())
    for tag in EXPFAM_TAGS:
        m[f"dynamics.expfam.us_per_step.{tag}"] = per("dynamics.expfam", tag)
    m["dynamics.logsumexp.calls"] = int(s.mask("dynamics.logsumexp").sum())
    m["dynamics.logsumexp.share"] = _ratio(s.dur[s.mask("dynamics.logsumexp")].sum(),
                                           s.dur[s.mask("dynamics.expfam")].sum())
    m["dynamics.orbit_gap.us_per_row"] = per("dynamics.orbit_gap")

    for label in ("simplex", "coupled", "denorm"):
        m[f"analysis.ess.us_per_sample.{label}"] = per("analysis.ess", label)
    m["analysis.ess.sampling_share"] = _ratio(s.dur[s.mask("analysis.sampling")].sum(),
                                              s.dur[s.mask("analysis.ess")].sum())
    m["analysis.lyapunov.us_per_row"] = per("analysis.lyapunov")
    m["analysis.gradient.us_per_probe"] = per("analysis.gradient")
    m["analysis.fisher.us_per_row"] = per("analysis.fisher")

    m["divergence.kl_formula.calls"] = int(s.mask("divergence.kl_formula").sum())
    m["divergence.kl_formula.us_per_call"] = per("divergence.kl_formula", unit="calls")

    for n in LOCALIZE_DIMS:
        m[f"geometry.localize.ms.n{n}"] = per("geometry.localize", f"n{n}", 1e3, unit="calls")
    m["geometry.localize.divergence_calls"] = int(
        s.with_parent("divergence.kl_formula", "geometry.localize").sum())
    m["geometry.inner_product.calls"] = int(s.mask("geometry.inner_product").sum())
    return m


def _call_overhead(s: Spans) -> Optional[float]:
    """Mean time an integrate call spends outside its step loop and diagnostics."""
    calls = np.flatnonzero(s.mask("dynamics.integrate"))
    steps = np.flatnonzero(s.mask("dynamics.rk4_step") & np.isin(s.parent, calls))
    if calls.size == 0 or steps.size == 0:
        return None
    first = np.full(s.dur.size, np.inf)
    last = np.full(s.dur.size, -np.inf)
    np.minimum.at(first, s.parent[steps], s.t0[steps])
    np.maximum.at(last, s.parent[steps], s.t1[steps])
    diag = s.with_parent("dynamics.diagnostics", "dynamics.integrate")
    diag_time = np.bincount(s.parent[diag], weights=s.dur[diag], minlength=s.dur.size)
    looped = calls[np.isfinite(first[calls])]
    outside = s.dur[looped] - (last[looped] - first[looped]) - diag_time[looped]
    return float(outside.mean() * 1e6)


def absent_metrics(metrics, missing: set) -> set:
    """Metrics that depend on a name the tracer could not bind."""
    return {metric for metric in metrics for prefix, spans in NEEDS.items()
            if metric.startswith(prefix) and missing.intersection(spans)}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(python: str, env: dict, repeats: int = 3) -> dict:
    """Median ``python -X importtime -c 'import simplexdyn'`` figures, in seconds."""
    totals, scipy, numpy = [], [], []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import simplexdyn"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=True)
        rows = [m.groups() for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        totals.append(sum(int(c) for _, c, _, name in rows if name == "simplexdyn") / 1e6)
        scipy.append(sum(int(s) for s, _, _, name in rows if name.split(".")[0] == "scipy") / 1e6)
        numpy.append(sum(int(s) for s, _, _, name in rows if name.split(".")[0] == "numpy") / 1e6)
    return {
        "import.total_s": statistics.median(totals),
        "import.scipy_s": statistics.median(scipy),
        "import.numpy_s": statistics.median(numpy),
    }

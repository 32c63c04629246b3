"""The benchmark tracer still finds every name it binds, on the path it measures.

``bench/tracing.py`` rebinds names as the calling module sees them (for
example ``dynamics.evaluate_landscape``).  A name the package no longer has
is skipped without a word and its metrics read null, so this test installs
the tracer, runs one short call down each traced path and checks that every
span was recorded.
"""

import json
import os
import sys

import numpy as np
import pytest

import simplexdyn as sd
import simplexdyn.cli  # noqa: F401  (binds sd.cli, which the tracer patches)
from simplexdyn import (
    CoupledState,
    Custom,
    Linear,
    Replicator,
    SimplexPoint,
    coupled_exp_family_solver,
    exp_family_solver,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench_modules():
    sys.path.insert(0, BENCH)
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.path.remove(BENCH)


def test_every_traced_name_is_bound_and_reached(bench_modules):
    tracing, workloads = bench_modules
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    x0 = SimplexPoint(np.array([0.5, 0.3, 0.2]))
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    s0 = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.5, 0.5])))
    custom = Custom(workloads.CustomPayoff(np.eye(3), np.full(3, 1.0 / 3.0)))
    tracer = tracing.Tracer()
    tracing.install(tracer, sd, workloads.CustomPayoff)
    try:
        assert tracer.missing == set()
        sd.integrate(Replicator(Linear(rps)), x0, 0.01, 5)
        sd.integrate(Replicator(custom), x0, 0.01, 5)
        exp_family_solver(Linear(rps), x0, 0.01, 5)
        coupled_exp_family_solver(Linear(pennies), Linear(-pennies.T), s0, 0.01, 5)
    finally:
        tracer.restore()
    recorded = {tracer.names[i] for i in tracer.name}
    for span in ("dynamics.field", "dynamics.rk4_step", "dynamics.diagnostics", "core.payoff",
                 "core.payoff_batch", "dynamics.logsumexp"):
        assert span in recorded
    assert sd.dynamics.evaluate_landscape is sd.core.evaluate_landscape


def test_the_traced_cli_spans_are_reached_in_process(bench_modules, tmp_path):
    tracing, workloads = bench_modules
    config = {
        "name": "traced",
        "kind": "replicator",
        "landscape": {"type": "linear", "matrix": [[-1.0, 2.0], [0.0, 1.0]]},
        "initial_state": [0.9, 0.1],
        "target": [0.5, 0.5],
        "dt": 0.01,
        "steps": 20,
        "checks": [{"name": "lyapunov"}, {"name": "ess", "samples": 20},
                   {"name": "gradient_consistency", "probes": 5}, {"name": "localize"}],
    }
    path = tmp_path / "traced.json"
    path.write_text(json.dumps(config))
    tracer = tracing.Tracer()
    tracing.install(tracer, sd, workloads.CustomPayoff)
    try:
        assert tracer.missing == set()
        codes = [sd.cli.run_scenario(str(path), str(tmp_path / fmt), fmt, True)
                 for fmt in ("csv", "json")]
    finally:
        tracer.restore()
    assert 1 not in codes  # every check ran and both files were written
    recorded = {tracer.names[i] for i in tracer.name}
    for span in ("cli.run_scenario", "cli.load_scenario", "cli.run_check", "cli.write_csv",
                 "cli.write_json", "dynamics.integrate", "geometry.localize",
                 "divergence.kl_formula"):
        assert span in recorded

"""The benchmark tracer still finds every name it binds, on the path it measures.

``bench/tracing.py`` rebinds names as the calling module sees them (for
example ``dynamics.evaluate_landscape``).  A name the package no longer has
is skipped without a word and its metrics read null, so this test installs
the tracer, runs one short call down each traced path and checks that every
span was recorded.
"""

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

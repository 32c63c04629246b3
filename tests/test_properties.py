"""Properties over random games, checked with hypothesis.

Two populations are two blocks of one state: a coupled run whose payoffs
ignore the other population is the two single-population runs side by side,
and its per-block diagnostics and Lyapunov series are their sums.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simplexdyn import (
    CoupledReplicator,
    CoupledState,
    Custom,
    Replicator,
    SimplexPoint,
    integrate,
    lyapunov_monitor,
)


@st.composite
def simplex_point(draw, n):
    weights = draw(arrays(float, n, elements=st.floats(0.05, 1.0)))
    return SimplexPoint(weights / weights.sum())


@st.composite
def decoupled_game(draw):
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    entries = st.floats(-2.0, 2.0)
    a = draw(arrays(float, (n, n), elements=entries))
    b = draw(arrays(float, (m, m), elements=entries))
    states = [draw(simplex_point(k)) for k in (n, m, n, m)]
    dt = draw(st.sampled_from([0.01, 0.05]))
    return a, b, states, dt, draw(st.integers(1, 60))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(decoupled_game())
def test_decoupled_coupled_run_is_two_single_runs(game):
    a, b, (p0, q0, p_hat, q_hat), dt, steps = game
    # one evaluator serves f(x) in the single run and f(own, other) in the coupled one
    f = Custom(lambda own, *other: a @ own)
    g = Custom(lambda own, *other: b @ own)
    coupled = integrate(
        CoupledReplicator(f, g), CoupledState(p0, q0), dt, steps, target=CoupledState(p_hat, q_hat)
    )
    single_p = integrate(Replicator(f), p0, dt, steps, target=p_hat)
    single_q = integrate(Replicator(g), q0, dt, steps, target=q_hat)
    rows = len(coupled)
    assert rows == min(len(single_p), len(single_q))
    split = p0.dim
    assert np.array_equal(coupled.states[:, :split], single_p.states[:rows])
    assert np.array_equal(coupled.states[:, split:], single_q.states[:rows])
    for column in ("mean_fitness", "fitness_variance", "divergence_to_target"):
        p_col, q_col = (getattr(t.diagnostics, column)[:rows] for t in (single_p, single_q))
        assert np.array_equal(getattr(coupled.diagnostics, column), p_col + q_col), column
    p_series = lyapunov_monitor(single_p, p_hat).values[:rows]
    q_series = lyapunov_monitor(single_q, q_hat).values[:rows]
    series = lyapunov_monitor(coupled, CoupledState(p_hat, q_hat)).values
    assert np.array_equal(series, p_series + q_series)

"""Properties over random games, checked with hypothesis.

Two populations are two blocks of one state: a coupled run whose payoffs
ignore the other population is the two single-population runs side by side,
and its per-block diagnostics and Lyapunov series are their sums.  A payoff
scaled by c is the same flow on a clock c times as fast, the
exponential-coordinate solvers integrate the same flows as ``integrate``, and
every population of every recorded row sums to 1 within a rounding bound.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simplexdyn import (
    CoupledReplicator,
    CoupledState,
    Custom,
    Ecological,
    Linear,
    LogLinear,
    LotkaVolterra,
    OrthantPoint,
    Replicator,
    Scaled,
    ShiftedLotkaVolterra,
    SimplexPoint,
    coupled_exp_family_solver,
    ess_check,
    exp_family_solver,
    integrate,
    lyapunov_monitor,
)
from simplexdyn.dynamics import EXPFAM_TOL


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


ENTRIES = st.floats(-2.0, 2.0)
#: Scaling by a power of two commutes with rounding, so the rescaled runs agree to the bit.
FACTORS = (0.25, 0.5, 2.0, 4.0)
KINDS = {"replicator": Replicator, "ecological": Ecological, "lotka_volterra": LotkaVolterra,
         "shifted_lotka_volterra": ShiftedLotkaVolterra, "coupled_replicator": CoupledReplicator}


@st.composite
def landscape(draw, n, m, types, dissipative=False):
    """A landscape of one of ``types`` whose matrices are (n, m)."""
    kind = draw(st.sampled_from(types))
    if kind == "scaled":
        return Scaled(draw(landscape(n, m, ("linear", "log_linear"))), draw(st.floats(0.5, 2.0)))
    matrix = draw(arrays(float, (n, m), elements=ENTRIES))
    if dissipative:  # negative definite: abundances stay bounded, so no payoff overflows
        matrix = -(matrix @ matrix.T) - np.eye(n)
    if kind == "linear":
        return Linear(matrix)
    return LogLinear(matrix, draw(arrays(float, n, elements=ENTRIES)))


@st.composite
def flow(draw, solver):
    """Landscapes, a start and a step for ``solver``: a kind of ``KINDS`` or an exp-family solver.

    Simplex flows take steps long enough to lose positivity; abundance flows take steps short
    enough for RK4 to stay stable, so that their states never overflow.
    """
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    every = ("linear", "log_linear", "scaled")
    if solver.endswith("lotka_volterra"):
        land = draw(landscape(n, n, ("linear", "log_linear"), dissipative=True))
        start = OrthantPoint(draw(arrays(float, n, elements=st.floats(0.2, 2.0))))
        return (land,), start, draw(st.sampled_from([0.01, 0.025]))
    dt = draw(st.sampled_from([0.01, 0.05, 0.25]))
    if solver.startswith("coupled"):
        lands = (draw(landscape(n, m, every)), draw(landscape(m, n, every)))
        return lands, CoupledState(draw(simplex_point(n)), draw(simplex_point(m))), dt
    land = draw(landscape(n, n, ("scaled",) if solver == "ecological" else every))
    return (land,), draw(simplex_point(n)), dt


def _solve(solver, lands, start, dt, steps):
    if solver == "exp_family":
        return exp_family_solver(*lands, start, dt, steps)
    if solver == "coupled_exp_family":
        return coupled_exp_family_solver(*lands, start, dt, steps)
    return integrate(KINDS[solver](*lands), start, dt, steps)


def _times(land, c):
    """``land`` with its payoff multiplied by ``c``."""
    if isinstance(land, Scaled):
        return Scaled(land.base, land.factor * c)
    if isinstance(land, LogLinear):
        return LogLinear(c * land.matrix, c * land.offset)
    return Linear(c * land.matrix)


def _failure_step(traj):
    return None if traj.failure is None else re.search(r"at step (\d+)", traj.failure).group(1)


@pytest.mark.parametrize("solver", [*KINDS, "exp_family", "coupled_exp_family"])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(FACTORS), st.integers(1, 60), st.data())
def test_a_payoff_scaled_by_c_runs_the_flow_at_step_c_dt(solver, c, steps, data):
    lands, start, dt = data.draw(flow(solver))
    fast = _solve(solver, [_times(land, c) for land in lands], start, dt, steps)
    slow = _solve(solver, lands, start, c * dt, steps)
    assert np.array_equal(fast.states, slow.states)
    fd, sd = fast.diagnostics, slow.diagnostics
    assert fd.normalizer is sd.normalizer is None or np.array_equal(fd.normalizer, sd.normalizer)
    assert np.array_equal(slow.times, c * fast.times)
    assert np.array_equal(fd.mean_fitness, c * sd.mean_fitness)
    assert np.array_equal(fd.fitness_variance, c * c * sd.fitness_variance)
    assert fast.truncated == slow.truncated
    assert _failure_step(fast) == _failure_step(slow)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 5), st.integers(2, 5), st.booleans(), st.sampled_from([0.005, 0.01]),
       st.integers(1, 100), st.data())
def test_exp_family_and_direct_runs_of_random_games_agree(n, m, coupled, dt, steps, data):
    game = data.draw(arrays(float, (n, m if coupled else n), elements=ENTRIES))
    if coupled:
        f, g = Linear(game), Linear(data.draw(arrays(float, (m, n), elements=ENTRIES)))
        start = CoupledState(data.draw(simplex_point(n)), data.draw(simplex_point(m)))
        direct = integrate(CoupledReplicator(f, g), start, dt, steps)
        log = coupled_exp_family_solver(f, g, start, dt, steps)
    else:
        start = data.draw(simplex_point(n))
        direct = integrate(Replicator(Linear(game)), start, dt, steps)
        log = exp_family_solver(Linear(game), start, dt, steps)
    assert not direct.truncated and not log.truncated
    assert np.max(np.abs(direct.states - log.states)) <= EXPFAM_TOL


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_kl_to_a_strict_ess_descends_along_the_flow(n, seed):
    # A = -(M M^T + I) is negative definite, so its interior rest point x_hat, proportional to
    # (M M^T + I)^-1 1, is a strict ESS and d/dt KL(x_hat || x) = (x - x_hat)^T A (x - x_hat) < 0
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = -(m @ m.T + np.eye(n))
    hat = np.linalg.solve(-a, np.ones(n))
    hat /= hat.sum()
    assume(hat.min() > 0.02)
    start = np.maximum(rng.dirichlet(np.ones(n)), 0.01)
    traj = integrate(Replicator(Linear(a)), SimplexPoint(start / start.sum()), 0.01, 300)
    assert not traj.truncated
    assert lyapunov_monitor(traj, SimplexPoint(hat)).monotone
    assert ess_check(SimplexPoint(hat), Linear(a), 0.5 * hat.min(), 100, seed).is_ess


@pytest.mark.parametrize("solver", ["replicator", "ecological", "coupled_replicator",
                                    "exp_family", "coupled_exp_family"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 5, 8, 13, 50]), st.sampled_from([2, 3, 5, 8, 13, 50]),
       st.floats(0.1, 300.0), st.floats(1e-3, 0.5), st.integers(1, 150), st.integers(0, 2**32 - 1))
def test_every_population_of_every_recorded_row_sums_to_one(solver, n, m, scale, dt, steps, seed):
    # a direct row is divided by its own sum; an exp-family row is exp(v - G), whose sum rounds
    # in G too, so its bound grows with |G|
    rng = np.random.default_rng(seed)
    coupled = solver.startswith("coupled")
    dims = (n, m) if coupled else (n,)
    lands = [Linear(scale * rng.standard_normal((a, b))) for a, b in zip(dims, dims[::-1])]
    if solver == "ecological":  # Scaled is aggregate-neutral by construction
        lands = [Scaled(lands[0], 1.0)]
    points = [SimplexPoint(w / w.sum()) for w in (rng.uniform(0.05, 1.0, k) for k in dims)]
    traj = _solve(solver, lands, CoupledState(*points) if coupled else points[0], dt, steps)
    normalizer = traj.diagnostics.normalizer  # None for a direct run: its bound is 2 n eps
    rows = len(traj)
    big_g = np.zeros((rows, len(dims))) if normalizer is None else normalizer.reshape(rows, -1)
    blocks = np.split(traj.states, np.cumsum(dims)[:-1], axis=1)
    for block, g in zip(blocks, np.abs(big_g).T):
        drift = np.abs(block.sum(axis=1) - 1.0)[1:]
        assert np.all(drift <= 2.0 * (block.shape[1] + g[1:]) * np.finfo(float).eps)

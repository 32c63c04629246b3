"""Vector fields, the fixed-step integrator, normalization correspondence,
and the exponential-coordinate solvers.

Closed-form oracles used below:
  * constant-payoff growth ODEs: x_i(t) = x_i(0) exp(f_i t)
  * hawk-dove interior rest point (0.5, 0.5)
  * linear v-dynamics for log-linear payoffs with constant row sums,
    solved independently with a matrix exponential
  * conserved aggregate for antisymmetric payoff matrices: d|x|/dt = x.Ax = 0
"""

import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from simplexdyn import (
    CoupledReplicator,
    CoupledState,
    Custom,
    Diagnostics,
    Ecological,
    EmptyTrajectoryError,
    KindMismatchError,
    Linear,
    LogLinear,
    LotkaVolterra,
    NotSimplexPreservingError,
    NotTangentError,
    OrthantPoint,
    Replicator,
    Scaled,
    ShiftedLotkaVolterra,
    SimplexPoint,
    StepSizeError,
    Trajectory,
    barycenter,
    coupled_exp_family_solver,
    coupled_replicator_field,
    ecological_field,
    exp_family_solver,
    fisher_theorem_check,
    integrate,
    lv_correspondence_residual,
    lv_field,
    normalize_lv_trajectory,
    orbit_gap,
    replicator_field,
    shifted_lv_field,
)
from simplexdyn.cli import write_trajectory_json

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
HAWK_DOVE = np.array([[-1.0, 2.0], [0.0, 1.0]])
PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _const(values):
    values = np.asarray(values, dtype=float)
    return LogLinear(np.zeros((values.size, values.size)), values)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


def test_replicator_field_examples():
    x = SimplexPoint(np.array([0.5, 0.25, 0.25]))
    np.testing.assert_allclose(
        replicator_field(x, Linear(RPS)).components, [0.0, 0.0625, -0.0625], atol=1e-15
    )
    np.testing.assert_allclose(
        replicator_field(x, _const([3.0, 3.0, 3.0])).components, 0.0, atol=1e-15
    )
    np.testing.assert_allclose(
        replicator_field(barycenter(3), Linear(RPS)).components, 0.0, atol=1e-15
    )


def test_a_field_the_package_computes_is_held_to_the_size_of_its_terms():
    # x_i (f_i - x . f) of RPS + 1e8 sums to 1.5e-9, rounding at |x_i f_i| ~ 1e8: a tangent
    # vector, though a caller's TangentVector of these components would be refused
    x = SimplexPoint(np.array([0.5, 0.3, 0.2]))
    field = replicator_field(x, Linear(RPS + 1e8)).components
    assert abs(field.sum()) > 1e-9 and not field.flags.writeable
    with pytest.raises(NotTangentError, match="components sum to nan"):  # a NaN sum is no sum
        replicator_field(x, Custom(lambda y: np.array([np.nan, 0.0, 0.0])))


def test_ecological_field_is_scaled_replicator():
    x = SimplexPoint(np.array([0.3, 0.7]))
    base = Linear(HAWK_DOVE)
    doubled = ecological_field(x, Scaled(base, 2.0))
    np.testing.assert_allclose(
        doubled.components, 2.0 * replicator_field(x, base).components, atol=1e-15
    )
    # factor 1 reproduces the replicator field exactly
    np.testing.assert_array_equal(
        ecological_field(x, Scaled(base, 1.0)).components,
        replicator_field(x, base).components,
    )


def test_ecological_field_rejects_mass_changing_payoff():
    x = SimplexPoint(np.array([0.3, 0.7]))
    with pytest.raises(NotSimplexPreservingError):
        ecological_field(x, _const([0.5, 0.5]))  # x . g = 0.5


def test_lv_field_examples():
    np.testing.assert_allclose(
        lv_field(OrthantPoint(np.array([1.0, 1.0])), _const([1.0, 2.0])), [1.0, 2.0]
    )
    y = OrthantPoint(np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(lv_field(y, Linear(RPS)), [0.0, 1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(lv_field(y, _const([0.0, 0.0, 0.0])), 0.0)


def test_shifted_lv_field_is_lv_over_total():
    y = OrthantPoint(np.array([1.0, 1.0]))
    np.testing.assert_allclose(shifted_lv_field(y, _const([1.0, 2.0])), [0.5, 1.0])
    z = OrthantPoint(np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(
        shifted_lv_field(z, Linear(RPS)) * z.total, lv_field(z, Linear(RPS)), atol=1e-15
    )


def test_coupled_field_matching_pennies():
    f, g = Linear(PENNIES), Linear(-PENNIES.T)
    center = CoupledState(
        SimplexPoint(np.array([0.5, 0.5])), SimplexPoint(np.array([0.5, 0.5]))
    )
    dp, dq = coupled_replicator_field(center, f, g)
    np.testing.assert_allclose(dp.components, 0.0, atol=1e-15)
    np.testing.assert_allclose(dq.components, 0.0, atol=1e-15)

    s = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.5, 0.5])))
    dp, dq = coupled_replicator_field(s, f, g)
    # Aq = 0 at q = center, so the p-population is momentarily at rest;
    # -A^T p = (-0.2, 0.2) has q-mean 0, so dq = q o (-0.2, 0.2)
    np.testing.assert_allclose(dp.components, 0.0, atol=1e-15)
    np.testing.assert_allclose(dq.components, [-0.1, 0.1], atol=1e-15)


def test_coupled_field_constant_payoffs():
    s = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.2, 0.8])))
    f = Custom(lambda own, other: np.full(2, 3.0))
    dp, dq = coupled_replicator_field(s, f, f)
    np.testing.assert_allclose(dp.components, 0.0, atol=1e-15)
    np.testing.assert_allclose(dq.components, 0.0, atol=1e-15)


@pytest.mark.parametrize(
    "field, kind, land, wrong",
    [
        (replicator_field, Replicator, Linear(RPS), OrthantPoint(np.array([1.0, 2.0, 3.0]))),
        (ecological_field, Ecological, Scaled(Linear(RPS), 1.0), OrthantPoint(np.ones(3))),
        (lv_field, LotkaVolterra, Linear(RPS), SimplexPoint(np.array([0.2, 0.3, 0.5]))),
        (shifted_lv_field, ShiftedLotkaVolterra, Linear(RPS), SimplexPoint(np.full(3, 1 / 3))),
    ],
    ids=["replicator", "ecological", "lotka_volterra", "shifted_lotka_volterra"],
)
def test_a_field_refuses_a_state_of_another_type_as_integrate_does(field, kind, land, wrong):
    message = f"^{kind.__name__} requires a {kind.state_type.__name__} state$"
    for state in (wrong, np.array([0.2, 0.3, 0.5]), [1.0, 2.0, 3.0]):
        with pytest.raises(KindMismatchError, match=message):
            field(state, land)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_hawk_dove_converges_to_interior_rest_point():
    traj = integrate(
        Replicator(Linear(HAWK_DOVE)), SimplexPoint(np.array([0.9, 0.1])), 0.01, 5000
    )
    assert not traj.truncated
    np.testing.assert_allclose(traj.final_state, [0.5, 0.5], atol=1e-6)


def test_integrate_at_equilibrium_is_constant():
    traj = integrate(Replicator(Linear(RPS)), barycenter(3), 0.1, 100)
    np.testing.assert_allclose(traj.states, 1.0 / 3.0, atol=1e-12)


def test_integrate_lv_constant_payoff_closed_form():
    traj = integrate(
        LotkaVolterra(_const([1.0, 2.0])), OrthantPoint(np.array([1.0, 1.0])), 1e-3, 1000
    )
    np.testing.assert_allclose(traj.final_state, [np.e, np.e**2], atol=1e-6)
    # every intermediate state matches x0 * exp(f t)
    exact = np.exp(np.outer(traj.times, [1.0, 2.0]))
    np.testing.assert_allclose(traj.states, exact, atol=1e-6)


def test_integrate_validates_steps_and_dt():
    x0 = SimplexPoint(np.array([0.5, 0.5]))
    kind = Replicator(Linear(HAWK_DOVE))
    with pytest.raises(StepSizeError):
        integrate(kind, x0, 0.0, 10)
    with pytest.raises(StepSizeError):
        integrate(kind, x0, -0.1, 10)
    with pytest.raises(StepSizeError):
        integrate(kind, x0, 0.1, 0)


@pytest.mark.parametrize("steps", [True, 2.0, np.float64(3.0)])
def test_integrate_refuses_a_bool_or_float_step_count(steps):
    with pytest.raises(StepSizeError, match=f"steps must be a positive integer, got {steps}"):
        integrate(Replicator(Linear(HAWK_DOVE)), SimplexPoint([0.9, 0.1]), 0.01, steps)


@pytest.mark.parametrize("dt", [True, np.True_])
def test_integrate_refuses_a_bool_step_size(dt):
    with pytest.raises(StepSizeError, match=f"dt must be positive and finite, got {dt}"):
        integrate(Replicator(Linear(HAWK_DOVE)), SimplexPoint([0.9, 0.1]), dt, 3)


def test_integrate_refuses_a_string_step_size():
    with pytest.raises(StepSizeError, match="dt must be positive and finite, got 0.1"):
        integrate(Replicator(Linear(HAWK_DOVE)), SimplexPoint([0.9, 0.1]), "0.1", 3)


@pytest.mark.parametrize("solver", ["integrate", "exp_family", "coupled_exp_family"])
def test_the_largest_finite_step_is_taken_once(solver):
    zero, half = Linear(np.zeros((2, 2))), SimplexPoint([0.5, 0.5])
    dt = sys.float_info.max
    traj = {"integrate": lambda: integrate(Replicator(zero), half, dt, 1),
            "exp_family": lambda: exp_family_solver(zero, half, dt, 1),
            "coupled_exp_family": lambda: coupled_exp_family_solver(
                zero, zero, CoupledState(half, half), dt, 1)}[solver]()
    assert traj.times.tolist() == [0.0, dt] and not traj.truncated


def test_integrate_takes_a_numpy_integer_step_count():
    traj = integrate(Replicator(Linear(HAWK_DOVE)), SimplexPoint([0.9, 0.1]), 0.01, np.int64(3))
    assert len(traj) == 4


def test_integrate_rejects_state_of_wrong_kind():
    with pytest.raises(KindMismatchError):
        integrate(Replicator(Linear(HAWK_DOVE)), OrthantPoint(np.array([1.0, 1.0])), 0.1, 5)
    with pytest.raises(KindMismatchError):
        integrate(LotkaVolterra(Linear(HAWK_DOVE)), SimplexPoint(np.array([0.5, 0.5])), 0.1, 5)


def test_integrate_rejects_target_of_wrong_kind():
    with pytest.raises(KindMismatchError):
        integrate(
            Replicator(Linear(HAWK_DOVE)),
            SimplexPoint(np.array([0.5, 0.5])),
            0.1,
            5,
            target=OrthantPoint(np.array([1.0, 1.0])),
        )


def test_integrate_halts_on_positivity_loss():
    # strong uniform decay from a tiny start crosses the positivity floor
    traj = integrate(
        LotkaVolterra(_const([-5.0, -5.0])), OrthantPoint(np.array([1e-6, 1e-6])), 0.4, 20
    )
    assert traj.truncated
    assert traj.failure is not None and "positivity" in traj.failure
    assert len(traj) < 21
    assert np.all(traj.states > 0.0)


def test_simplex_invariance_along_trajectories():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((4, 4))
    raw = rng.uniform(0.1, 1.0, size=4)
    traj = integrate(Replicator(Linear(A)), SimplexPoint(raw / raw.sum()), 0.01, 2000)
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-9
    assert np.all(traj.states > 0.0)
    assert np.all(np.diff(traj.times) > 0.0)


def test_diagnostics_content():
    x0 = SimplexPoint(np.array([0.9, 0.1]))
    target = SimplexPoint(np.array([0.5, 0.5]))
    traj = integrate(Replicator(Linear(HAWK_DOVE)), x0, 0.01, 10, target=target)
    d = traj.diagnostics
    # step 0 diagnostics match the hand-computed statistics at x0
    f0 = HAWK_DOVE @ x0.coords
    fbar = float(x0.coords @ f0)
    assert d.mean_fitness[0] == pytest.approx(fbar, abs=1e-14)
    assert d.fitness_variance[0] == pytest.approx(
        float(x0.coords @ (f0 - fbar) ** 2), abs=1e-14
    )
    assert d.divergence_to_target[0] == pytest.approx(
        0.5 * (np.log(0.5) - np.log(0.9)) + 0.5 * (np.log(0.5) - np.log(0.1)), abs=1e-12
    )
    np.testing.assert_allclose(d.state_total, 1.0, atol=1e-12)

    no_target = integrate(Replicator(Linear(HAWK_DOVE)), x0, 0.01, 10)
    assert np.all(np.isnan(no_target.diagnostics.divergence_to_target))


def test_lv_diagnostics_track_total():
    traj = integrate(
        LotkaVolterra(_const([1.0, 2.0])), OrthantPoint(np.array([1.0, 1.0])), 1e-2, 100
    )
    np.testing.assert_allclose(
        traj.diagnostics.state_total, traj.states.sum(axis=1), atol=1e-12
    )
    assert traj.diagnostics.state_total[-1] > 2.0


HD_KIND = Replicator(Linear(HAWK_DOVE))
MP_KIND = CoupledReplicator(Linear(PENNIES), Linear(-PENNIES))
HALVES = [[0.5, 0.5]]


@pytest.mark.parametrize(
    "kind, times, states, split, error, message",
    [
        (HD_KIND, [[0.0]], HALVES, None, ValueError, "inconsistent trajectory shapes"),
        (HD_KIND, [0.0], [0.5, 0.5], None, ValueError, "inconsistent trajectory shapes"),
        (HD_KIND, [0.0, 1.0], HALVES, None, ValueError, "inconsistent trajectory shapes"),
        (HD_KIND, [], np.empty((0, 2)), None, EmptyTrajectoryError, "at least one state"),
        (HD_KIND, [0.0, 0.0], HALVES * 2, None, ValueError, "times must be strictly increasing"),
        (HD_KIND, [0.0, 1.0, 0.5], HALVES * 3, None, ValueError, "strictly increasing"),
        (HD_KIND, [0.0], [[1.0, 0.0]], None, ValueError, "coordinates must be strictly positive"),
        (LotkaVolterra(Linear(HAWK_DOVE)), [0.0], [[2.0, -1.0]], None, ValueError,
         "coordinates must be strictly positive"),
        (MP_KIND, [0.0], [[0.5] * 4], None, ValueError, "requires a valid split index"),
        (MP_KIND, [0.0], [[0.5] * 4], 0, ValueError, "requires a valid split index"),
        (MP_KIND, [0.0], [[0.5] * 4], 4, ValueError, "requires a valid split index"),
        (MP_KIND, [0.0], [[0.5] * 4], 1.5, ValueError, "requires a valid split index"),
        (MP_KIND, [0.0], [[0.5] * 4], 2.0, ValueError, "requires a valid split index"),
        (MP_KIND, [0.0], [[0.5] * 4], "2", ValueError, "requires a valid split index"),
        (MP_KIND, [0.0], [[0.5] * 4], True, ValueError, "requires a valid split index"),
        (HD_KIND, [0.0], HALVES, 1, ValueError,
         "a Replicator trajectory takes no split, got split = 1"),
        (LotkaVolterra(Linear(HAWK_DOVE)), [0.0], [[2.0, 1.0]], 0, ValueError,
         "a LotkaVolterra trajectory takes no split, got split = 0"),
        (HD_KIND, [0.0], [[0.5, 0.6]], None, ValueError, "rows must sum to 1 within tolerance"),
        (MP_KIND, [0.0], [[0.5, 0.5, 0.5, 0.6]], 2, ValueError, "rows must sum to 1"),
        ("replicator", [0.0], HALVES, None, TypeError, "unknown field kind: 'replicator'"),
        (Linear(HAWK_DOVE), [0.0], HALVES, None, TypeError, "unknown field kind: Linear("),
    ],
)
def test_trajectory_rejects_invalid_records(kind, times, states, split, error, message):
    diagnostics = Diagnostics(*(np.zeros(1) for _ in range(4)))
    with pytest.raises(error, match=re.escape(message)) as exc:
        Trajectory(kind, np.array(times), np.array(states), diagnostics, split=split)
    assert type(exc.value) is error


def _fisher_run():
    """51 rows of a replicator run whose diagnostics the tests below rebuild, one series changed."""
    kind = Replicator(Linear(np.array([[1.0, 0.5], [0.5, 2.0]])))
    return integrate(kind, SimplexPoint(np.array([0.3, 0.7])), 0.01, 50)


@pytest.mark.parametrize(
    "series, change, expected",
    [
        ("fitness_variance", lambda s: s[:, None], "shape (51, 1), expected (51,)"),
        ("mean_fitness", lambda s: s[:-1], "shape (50,), expected (51,)"),
        ("normalizer", lambda s: np.zeros(50), "shape (50,), expected (51,) or (51, k)"),
        ("normalizer", lambda s: np.zeros((51, 2, 1)), "shape (51, 2, 1), expected (51,) or (51, k)"),
    ],
    ids=["variance-column", "mean-row-short", "normalizer-row-short", "normalizer-3d"],
)
def test_trajectory_rejects_diagnostics_that_do_not_match_its_rows(series, change, expected):
    traj = _fisher_run()
    diagnostics = replace(traj.diagnostics, **{series: change(getattr(traj.diagnostics, series))})
    with pytest.raises(ValueError, match=re.escape(f"diagnostics {series} has {expected}")):
        replace(traj, diagnostics=diagnostics)


def test_a_central_difference_refuses_a_time_grid_that_is_not_uniform():
    traj = _fisher_run()
    times = traj.times.copy()
    times[25] += 0.004
    with pytest.raises(ValueError, match="^check requires a uniform time grid$"):
        fisher_theorem_check(replace(traj, times=times))


def test_a_diagnostics_series_given_as_a_list_is_read_as_a_float_array(tmp_path):
    traj = _fisher_run()
    listed = replace(traj, diagnostics=replace(traj.diagnostics,
                                               mean_fitness=traj.diagnostics.mean_fitness.tolist()))
    assert listed.diagnostics.mean_fitness.dtype == float
    assert fisher_theorem_check(listed) == fisher_theorem_check(traj)
    write_trajectory_json(str(tmp_path / "array.json"), traj)
    write_trajectory_json(str(tmp_path / "list.json"), listed)
    assert (tmp_path / "list.json").read_bytes() == (tmp_path / "array.json").read_bytes()


def test_normalize_lv_trajectory_shares_the_runs_diagnostics_arrays():
    traj = integrate(LotkaVolterra(Linear(-np.eye(2))), OrthantPoint(np.array([0.5, 2.0])), 0.01, 20)
    norm = normalize_lv_trajectory(traj)
    assert norm.diagnostics.mean_fitness is traj.diagnostics.mean_fitness
    assert norm.diagnostics.divergence_to_target is traj.diagnostics.divergence_to_target


@pytest.mark.parametrize(
    "base, x0",
    [
        (Replicator, SimplexPoint(np.array([0.9, 0.1]))),
        (LotkaVolterra, OrthantPoint(np.array([1.0, 2.0]))),
    ],
)
def test_a_subclass_of_a_kind_runs_as_that_kind(base, x0):
    subclass = type("Sub" + base.__name__, (base,), {})
    traj = integrate(base(Linear(-np.eye(2) + 0.5)), x0, 0.01, 50, target=x0)
    sub = integrate(subclass(Linear(-np.eye(2) + 0.5)), x0, 0.01, 50, target=x0)
    assert type(sub.kind) is subclass and np.array_equal(sub.states, traj.states)
    assert np.array_equal(sub.diagnostics.divergence_to_target,
                          traj.diagnostics.divergence_to_target)


# ---------------------------------------------------------------------------
# LV <-> replicator correspondence
# ---------------------------------------------------------------------------


def test_normalize_lv_trajectory_constant_payoff():
    traj = integrate(
        LotkaVolterra(_const([1.0, 2.0])), OrthantPoint(np.array([1.0, 1.0])), 1e-3, 1000
    )
    norm = normalize_lv_trajectory(traj)
    np.testing.assert_allclose(norm.states[0], [0.5, 0.5], atol=1e-12)
    expected_final = np.array([1.0 / (1.0 + np.e), np.e / (1.0 + np.e)])
    np.testing.assert_allclose(norm.states[-1], expected_final, atol=1e-6)
    # first coordinate decays monotonically toward 0
    assert np.all(np.diff(norm.states[:, 0]) < 0.0)


def test_normalize_lv_trajectory_uniform_growth_is_constant():
    traj = integrate(
        LotkaVolterra(_const([2.0, 2.0])), OrthantPoint(np.array([0.25, 0.75])), 1e-2, 200
    )
    norm = normalize_lv_trajectory(traj)
    assert np.max(np.abs(norm.states - norm.states[0])) <= 1e-12


def test_normalize_lv_trajectory_requires_orthant_kind():
    traj = integrate(Replicator(Linear(HAWK_DOVE)), SimplexPoint(np.array([0.5, 0.5])), 0.1, 5)
    with pytest.raises(KindMismatchError):
        normalize_lv_trajectory(traj)


def test_lv_correspondence_residual_rps():
    traj = integrate(
        LotkaVolterra(Linear(RPS)), OrthantPoint(np.array([2.0, 1.0, 1.0])), 1e-3, 5000
    )
    assert lv_correspondence_residual(traj) <= 1e-5


def test_shifted_lv_correspondence_residual():
    traj = integrate(
        ShiftedLotkaVolterra(Linear(RPS)), OrthantPoint(np.array([2.0, 1.0, 1.0])), 1e-3, 5000
    )
    assert lv_correspondence_residual(traj) <= 1e-5


def test_orbit_equivalence_of_the_two_lv_forms():
    """The two growth forms trace the same point set at different speeds.
    With the cyclic payoff the aggregate stays at 4, so the shifted flow
    is exactly 4x slower and four times the horizon covers the same arc."""
    y0 = OrthantPoint(np.array([2.0, 1.0, 1.0]))
    plain = integrate(LotkaVolterra(Linear(RPS)), y0, 1e-3, 5000)
    shifted = integrate(ShiftedLotkaVolterra(Linear(RPS)), y0, 1e-3, 20000)
    assert orbit_gap(shifted.states, plain.states) <= 1e-4
    np.testing.assert_allclose(plain.states.sum(axis=1), 4.0, atol=1e-10)


def test_orbit_gap_basics():
    states = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert orbit_gap(states, states) == 0.0
    off = np.array([[1.5, 0.7]])
    assert orbit_gap(off, states) == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# exponential-coordinate solvers
# ---------------------------------------------------------------------------


def test_exp_family_zero_payoff_is_constant():
    x0 = SimplexPoint(np.array([0.2, 0.3, 0.5]))
    traj = exp_family_solver(_const([0.0, 0.0, 0.0]), x0, 0.01, 100)
    assert np.max(np.abs(traj.states - x0.coords)) <= 1e-14


def test_exp_family_constant_payoff_closed_form():
    traj = exp_family_solver(_const([1.0, 2.0]), SimplexPoint(np.array([0.5, 0.5])), 1e-3, 1000)
    expected = np.array([1.0 / (1.0 + np.e), np.e / (1.0 + np.e)])
    np.testing.assert_allclose(traj.final_state, expected, atol=1e-9)


def test_exp_family_matches_direct_integration():
    f = Linear(HAWK_DOVE)
    x0 = SimplexPoint(np.array([0.9, 0.1]))
    direct = integrate(Replicator(f), x0, 1e-3, 10000)
    ef = exp_family_solver(f, x0, 1e-3, 10000)
    assert np.max(np.abs(direct.states - ef.states)) <= 1e-6


def test_exp_family_normalizer_satisfies_mean_fitness_identity():
    """The normalizer's time derivative is the mean payoff; since the
    solver recomputes the normalizer exactly, the identity shows up as an
    O(dt^2) central-difference residual."""
    f = Linear(HAWK_DOVE)
    x0 = SimplexPoint(np.array([0.9, 0.1]))

    def residual(dt, steps):
        traj = exp_family_solver(f, x0, dt, steps)
        G = traj.diagnostics.normalizer
        fbar = traj.diagnostics.mean_fitness
        dG = (G[2:] - G[:-2]) / (2.0 * dt)
        return np.max(np.abs(dG - fbar[1:-1]))

    r_coarse = residual(2e-3, 2500)
    r_fine = residual(1e-3, 5000)
    assert r_coarse <= 1e-4
    assert 3.0 <= r_coarse / r_fine <= 5.0


def test_log_linear_constant_row_sum_closed_form():
    """For payoffs f(x) = A log x + b with constant row sums, the
    exponential-coordinate equation reduces to the linear system w' = Aw + b
    (the normalizer shifts along the all-ones direction, which the softmax
    ignores).  Solve that system independently with a matrix exponential and
    compare both integrators against it."""
    A = np.array([[0.5, 0.5], [0.2, 0.8]])  # rows sum to 1
    b = np.array([0.1, -0.3])
    land = LogLinear(A, b)
    x0 = SimplexPoint(np.array([0.7, 0.3]))
    dt, steps = 1e-3, 2000

    direct = integrate(Replicator(land), x0, dt, steps)
    ef = exp_family_solver(land, x0, dt, steps)

    aug = np.zeros((3, 3))
    aug[:2, :2] = A
    aug[:2, 2] = b
    w0 = np.concatenate([np.log(x0.coords), [1.0]])
    for k in (0, 500, 1000, 2000):
        w = (expm(aug * direct.times[k]) @ w0)[:2]
        z = w - w.max()
        exact = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(direct.states[k], exact, atol=1e-8)
        np.testing.assert_allclose(ef.states[k], exact, atol=1e-8)


def test_coupled_exp_family_zero_payoffs():
    s0 = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.2, 0.8])))
    zero = Custom(lambda own, other: np.zeros(2))
    traj = coupled_exp_family_solver(zero, zero, s0, 0.01, 50)
    assert np.max(np.abs(traj.states - s0.concatenated())) <= 1e-14


def test_coupled_exp_family_matches_direct():
    f, g = Linear(PENNIES), Linear(-PENNIES.T)
    s0 = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.5, 0.5])))
    direct = integrate(CoupledReplicator(f, g), s0, 1e-3, 10000)
    ef = coupled_exp_family_solver(f, g, s0, 1e-3, 10000)
    assert np.max(np.abs(direct.states - ef.states)) <= 1e-6


def _shifted_run(coupled, shift, steps):
    """A run whose payoffs carry a constant shift, which leaves the flow as it is."""
    if coupled:
        s0 = CoupledState(SimplexPoint([0.6, 0.4]), SimplexPoint([0.5, 0.5]))
        return coupled_exp_family_solver(Linear(PENNIES + shift), Linear(-PENNIES.T + shift), s0,
                                         0.01, steps)
    return exp_family_solver(Linear(RPS + shift), SimplexPoint([0.5, 0.3, 0.2]), 0.01, steps)


#: Each kernel's cut step for the parametrized one, which is SkylakeX's (and Haswell's).
CUT_STEPS = {"SkylakeX": {168: 168, 170: 170}, "Haswell": {168: 168, 170: 170},
             "Prescott": {168: 175, 170: 169}}


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("coupled, shift, step", [(False, 1e6, None), (False, 1e7, 168),
                                                  (True, 1e6, None), (True, 1e7, 170)])
def test_an_exp_family_run_whose_rows_leave_the_simplex_truncates_naming_the_normalizer(
    coupled, shift, step, blas_kernel
):
    # exp(v - G) rounds at the size of G: from G near 1.7e7 a recorded row misses 1 by > 1e-9,
    # at a step that depends on how the BLAS kernel rounds the payoffs
    traj = _shifted_run(coupled, shift, 200)
    if step is None:
        assert len(traj) == 201 and not traj.truncated and traj.failure is None
        return
    step = CUT_STEPS[blas_kernel][step]
    assert traj.truncated and len(traj) == step
    assert re.fullmatch(rf"normalizer G = \S.* rounds exp\(v - G\) off the simplex "
                        rf"at step {step} \(t = {step * 0.01:g}\)", traj.failure)
    shorter = _shifted_run(coupled, shift, step - 1)
    assert not shorter.truncated
    for a, b in [(traj.times, shorter.times), (traj.states, shorter.states),
                 *((getattr(traj.diagnostics, name), series)
                   for name, series in shorter.diagnostics._series())]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_matching_pennies_orbit_closes():
    f, g = Linear(PENNIES), Linear(-PENNIES.T)
    s0 = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.5, 0.5])))
    traj = coupled_exp_family_solver(f, g, s0, 1e-3, 8000)
    start = traj.states[0]
    # after half the horizon, the orbit has come back around
    revisit = np.min(np.linalg.norm(traj.states[4000:] - start, axis=1))
    assert revisit <= 1e-3


def test_coupled_trajectory_keeps_blocks_normalized():
    f, g = Linear(PENNIES), Linear(-PENNIES.T)
    s0 = CoupledState(SimplexPoint(np.array([0.6, 0.4])), SimplexPoint(np.array([0.5, 0.5])))
    traj = integrate(CoupledReplicator(f, g), s0, 0.01, 500)
    assert traj.split == 2
    np.testing.assert_allclose(traj.states[:, :2].sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(traj.states[:, 2:].sum(axis=1), 1.0, atol=1e-9)


def test_lv_blow_up_truncates_without_runtime_warnings():
    # dx_i = x_i^2 from (1, 1) reaches infinity at t = 1; RK4 at dt = 0.1
    # overflows a few steps later
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(LotkaVolterra(Linear(np.eye(2))), OrthantPoint(np.ones(2)), 0.1, 100)
    assert traj.truncated
    assert traj.failure == "positivity lost at step 13 (t = 1.3)"
    assert len(traj) == 13


def test_lv_overflow_to_inf_halts_before_the_inf_row():
    # dx_i = 3 x_i^2 from (1, 1) at dt = 0.05: step 9 overflows to inf, which
    # is not a finite state and must not be recorded
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(
            LotkaVolterra(Linear(np.diag([3.0, 3.0]))), OrthantPoint(np.ones(2)), 0.05, 100
        )
    assert traj.truncated
    assert traj.failure == "positivity lost at step 9 (t = 0.45)"
    assert np.all(np.isfinite(traj.states))
    assert np.all(np.isfinite(traj.diagnostics.mean_fitness))


def test_lv_blow_up_diagnostics_raise_no_runtime_warnings():
    # the recorded rows stay finite, but squaring their payoffs in the
    # variance overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(
            LotkaVolterra(Linear(np.diag([1.0, 0.9]))), OrthantPoint(np.ones(2)), 0.1, 100
        )
    assert traj.truncated
    assert np.all(np.isfinite(traj.states))


def test_replicator_overshoot_to_zero_sum_raises_no_runtime_warnings():
    # one RK4 step overshoots to about (+6.2e20, -6.2e20), whose coordinates
    # sum to exactly 0: renormalizing divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(
            Replicator(Linear(np.array([[1000.0, 0.0], [0.0, -1000.0]]))),
            SimplexPoint(np.array([0.5, 0.5])),
            0.1,
            10,
        )
    assert traj.truncated
    assert traj.failure == "positivity lost at step 1 (t = 0.1)"
    assert len(traj) == 1

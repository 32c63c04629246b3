"""Stability certification, Lyapunov monitoring, and the two identity checks.

The margin oracles are exact algebra for 2x2 games: with payoff matrix
[[-1, 2], [0, 1]] the stability margin of (0.5, 0.5) against p is
(2 p1 - 1)^2 / 2, and the identity matrix flips its sign.  Antisymmetric
matrices give margin exactly 0 against a central candidate.
"""

import warnings

import numpy as np
import pytest

from simplexdyn import (
    CoupledReplicator,
    CoupledState,
    Custom,
    DimensionMismatchError,
    KindMismatchError,
    Linear,
    LogLinear,
    LotkaVolterra,
    NotSymmetricError,
    OrthantPoint,
    RadiusTooLargeError,
    Replicator,
    ShiftedLotkaVolterra,
    SimplexPoint,
    barycenter,
    coupled_ess_check,
    denormalized_ess_check,
    ess_check,
    fisher_theorem_check,
    gradient_consistency_check,
    integrate,
    kl,
    lyapunov_monitor,
)
from simplexdyn.analysis import _ess_report, _sine_to_direction
from simplexdyn.core import _per_total

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
HAWK_DOVE = np.array([[-1.0, 2.0], [0.0, 1.0]])
PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
CENTER = SimplexPoint(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# ess_check
# ---------------------------------------------------------------------------


def test_ess_hawk_dove_margins_match_closed_form():
    report = ess_check(CENTER, Linear(HAWK_DOVE), 0.2, 1000, 7)
    assert report.is_ess
    assert report.min_margin > 0.0
    assert report.samples_tested == 1000
    predicted = (2.0 * report.samples[:, 0] - 1.0) ** 2 / 2.0
    np.testing.assert_allclose(report.margins, predicted, rtol=0, atol=1e-9)


def test_ess_rps_barycenter_is_neutral():
    report = ess_check(barycenter(3), Linear(RPS), 0.1, 300, 6)
    assert not report.is_ess
    assert abs(report.min_margin) <= 1e-12
    assert report.indeterminate == 300


def test_ess_coordination_center_is_rejected():
    report = ess_check(CENTER, Linear(np.eye(2)), 0.2, 300, 4)
    assert not report.is_ess
    assert report.min_margin < 0.0
    predicted = -((2.0 * report.samples[:, 0] - 1.0) ** 2) / 2.0
    np.testing.assert_allclose(report.margins, predicted, rtol=0, atol=1e-9)


def test_ess_samples_stay_in_the_ball_and_on_the_simplex():
    report = ess_check(CENTER, Linear(HAWK_DOVE), 0.15, 500, 2)
    sums = report.samples.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)
    assert np.all(report.samples > 0.0)
    dists = np.linalg.norm(report.samples - CENTER.coords, axis=1)
    assert np.max(dists) <= 0.15 + 1e-12


def test_ess_is_deterministic_given_seed():
    a = ess_check(CENTER, Linear(HAWK_DOVE), 0.2, 100, 42)
    b = ess_check(CENTER, Linear(HAWK_DOVE), 0.2, 100, 42)
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.margins, b.margins)
    c = ess_check(CENTER, Linear(HAWK_DOVE), 0.2, 100, 43)
    assert not np.array_equal(a.samples, c.samples)


def test_a_nan_margin_is_indeterminate_and_certifies_nothing():
    report = _ess_report(np.array([1.0, np.nan]), np.zeros((2, 2)), 0.1, 2)
    assert not report.is_ess and report.indeterminate == 1 and np.isnan(report.min_margin)
    # a payoff that reads NaN past x_0 = 0.55: every other margin is positive
    def payoff(x):
        return HAWK_DOVE @ x if x[0] < 0.55 else np.full(2, np.nan)
    report = ess_check(CENTER, Custom(payoff), 0.2, 100, 7)
    assert not report.is_ess
    assert report.indeterminate == np.sum(np.isnan(report.margins)) == 27
    assert np.all(report.margins[~np.isnan(report.margins)] > 1e-12)


def test_ess_radius_too_large_near_boundary():
    with pytest.raises(RadiusTooLargeError):
        ess_check(SimplexPoint(np.array([0.98, 0.02])), Linear(HAWK_DOVE), 0.1, 200, 0)


def test_ess_rejects_bad_sampling_parameters():
    with pytest.raises(ValueError):
        ess_check(CENTER, Linear(HAWK_DOVE), -0.1, 10, 0)
    with pytest.raises(ValueError):
        ess_check(CENTER, Linear(HAWK_DOVE), 0.1, 0, 0)


@pytest.mark.parametrize("samples", [True, 10.0])
def test_ess_refuses_a_bool_or_float_sample_count(samples):
    with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples}"):
        ess_check(CENTER, Linear(HAWK_DOVE), 0.1, samples, 0)


def test_ess_refuses_a_bool_radius():
    with pytest.raises(ValueError, match="radius must be > 0 and finite, got True"):
        ess_check(CENTER, Linear(HAWK_DOVE), True, 10, 0)


def test_ess_refuses_an_infinite_radius_before_sampling():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius must be > 0 and finite, got inf"):
            ess_check(CENTER, Linear(HAWK_DOVE), np.inf, 10, 0)


@pytest.mark.parametrize("check", [
    lambda: denormalized_ess_check(OrthantPoint([1.0, 1.0]), Custom(lambda x: np.zeros(2)),
                                   1.7e308, 1, 7),
    lambda: ess_check(CENTER, Linear(HAWK_DOVE), 1.7e308, 1, 7),
], ids=["orthant", "tangent"])
def test_a_radius_near_the_float64_maximum_is_too_large_with_no_warning(check):
    # radius / |z| overflows; a coordinate float64 cannot hold has left the ball's domain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RadiusTooLargeError, match=r"sample left the (positive orthant|"
                                                      r"interior): radius 1\.7e\+308 too large"):
            check()


@pytest.mark.parametrize("radius, shown", [(2**63, "9223372036854775808"), (1e300, "1e+300"),
                                           (1.7e308, "1.7e+308")],
                         ids=["2**63", "1e300", "1.7e308"])
def test_a_radius_whose_samples_total_zero_is_too_large_with_no_warning(radius, shown):
    # at n = 3 some of 300 samples have coordinates that sum to 0, and x / |x| divided by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RadiusTooLargeError) as info:
            ess_check(SimplexPoint(np.full(3, 1 / 3)), Linear(RPS), radius, 300, 1)
    assert str(info.value) == (f"sample left the interior: radius {shown} too large around "
                               "[0.33333333 0.33333333 0.33333333]")


def _ess_checks(seed):
    """The three ESS checks at a stable rest point, each with ``seed``."""
    half = SimplexPoint([0.5, 0.5])
    yield lambda: ess_check(half, Linear(HAWK_DOVE), 0.1, 10, seed)
    yield lambda: coupled_ess_check(half, half, Linear(-np.eye(2)), Linear(-np.eye(2)), 0.1, 10,
                                    seed)
    yield lambda: denormalized_ess_check(OrthantPoint([1.0, 1.0]), Linear(-np.eye(2)), 0.1, 10,
                                         seed)


@pytest.mark.parametrize("seed", [True, np.True_, 1.5, 2.0])
def test_ess_checks_refuse_a_bool_or_float_seed(seed):
    for check in _ess_checks(seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
            check()


def test_ess_checks_take_a_numpy_integer_seed():
    for numpy_seeded, int_seeded in zip(_ess_checks(np.int64(7)), _ess_checks(7)):
        np.testing.assert_array_equal(numpy_seeded().margins, int_seeded().margins)


@pytest.mark.parametrize("count", [2**62, 2**63])
def test_a_count_whose_draws_no_array_holds_is_a_memory_error_before_any_draw(count):
    # the ESS samplers drew in a Python loop until memory ran out, and the gradient check let
    # numpy's ValueError "Maximum allowed dimension exceeded" through
    half, pair = SimplexPoint([0.5, 0.5]), OrthantPoint([1.0, 1.0])
    checks = [
        ("samples", 2, lambda: ess_check(half, Linear(HAWK_DOVE), 0.1, count, 0)),
        ("samples", 4, lambda: coupled_ess_check(half, half, Linear(-np.eye(2)),
                                                 Linear(-np.eye(2)), 0.1, count, 0)),
        ("samples", 2, lambda: denormalized_ess_check(pair, Linear(-np.eye(2)), 0.1, count, 0)),
        ("probes", 2, lambda: gradient_consistency_check(half, [0.5, 0.5], count, 0)),
    ]
    for what, width, check in checks:
        with pytest.raises(MemoryError) as info:
            check()
        assert str(info.value) == (f"{what} = {count} asks for {width} random draws each, "
                                   "more than one array can hold")


# ---------------------------------------------------------------------------
# coupled and denormalized variants
# ---------------------------------------------------------------------------


def test_coupled_ess_from_independent_populations():
    # each population plays its own hawk-dove game; the summed margin is the
    # sum of two single-population margins, so stability carries over
    f_own = Custom(lambda own, other: HAWK_DOVE @ own)
    report = coupled_ess_check(CENTER, CENTER, f_own, f_own, 0.2, 400, 3)
    assert report.is_ess
    predicted = (2.0 * report.samples[:, 0] - 1.0) ** 2 / 2.0 + (
        2.0 * report.samples[:, 2] - 1.0
    ) ** 2 / 2.0
    np.testing.assert_allclose(report.margins, predicted, rtol=0, atol=1e-9)


def test_coupled_ess_matching_pennies_identically_zero():
    report = coupled_ess_check(
        CENTER, CENTER, Linear(PENNIES), Linear(-PENNIES.T), 0.1, 500, 13
    )
    assert not report.is_ess
    assert np.max(np.abs(report.margins)) <= 1e-12
    assert report.indeterminate == 500


def test_coupled_ess_flat_payoffs():
    flat = Custom(lambda own, other: np.full(own.size, 2.0))
    report = coupled_ess_check(CENTER, CENTER, flat, flat, 0.1, 100, 1)
    assert not report.is_ess
    assert np.max(np.abs(report.margins)) <= 1e-12


def test_denormalized_ess_hawk_dove():
    land = Custom(lambda x: HAWK_DOVE @ (x / x.sum()))
    for cand in ([1.0, 1.0], [2.0, 2.0]):
        report = denormalized_ess_check(OrthantPoint(np.array(cand)), land, 0.3, 400, 9)
        assert report.is_ess
        y1 = report.samples[:, 0] / report.samples.sum(axis=1)
        predicted = (2.0 * y1 - 1.0) ** 2 / 2.0
        np.testing.assert_allclose(report.margins, predicted, rtol=0, atol=1e-9)
        assert report.parallel_samples == 0


def test_denormalized_ess_zero_payoff():
    zero = Custom(lambda x: np.zeros(x.size))
    report = denormalized_ess_check(OrthantPoint(np.array([1.0, 1.0])), zero, 0.3, 100, 5)
    assert not report.is_ess
    assert np.max(np.abs(report.margins)) == 0.0


@pytest.mark.parametrize("center, payoff, radius", [
    ([1e308, 1e308], Linear(-np.eye(2)), 0.1),
    ([1e308, 1e308], Linear(-np.eye(2)), 1e307),
    ([1.0, 1.0], Custom(lambda x: np.array([np.inf, 0.0])), 0.1),
], ids=["0.1", "1e+307", "inf-payoff"])
def test_denormalized_ess_at_a_candidate_whose_total_overflows_reads_the_frequencies(center,
                                                                                    payoff,
                                                                                    radius):
    # |candidate| = 2e308 overflows; each margin is taken from the frequencies, quietly.  Where
    # the totals are finite, a margin inf - inf is the payoff's, and it warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = denormalized_ess_check(OrthantPoint(center), payoff, radius, 10, 0)
    if center == [1.0, 1.0]:
        assert [str(w.message) for w in caught] == ["invalid value encountered in subtract"]
        assert np.all(np.isnan(report.margins))
        return
    assert caught == []
    if radius == 0.1:  # every sample rounds to the candidate
        np.testing.assert_array_equal(report.margins, np.zeros(10))
        assert report.indeterminate == 10 and report.parallel_samples == 10
        assert not report.is_ess
    else:  # f(x) = -x: the margin is x . (y - 1/2), positive off the candidate's ray
        x = report.samples
        y = x / x.max(axis=1)[:, None]
        y /= y.sum(axis=1)[:, None]
        # both sides cancel terms near 1e308, so they agree to a few eps of that size
        np.testing.assert_allclose(report.margins, np.einsum("ij,ij->i", x, y - 0.5), rtol=0,
                                   atol=1e295)
        assert np.all(np.isfinite(report.margins)) and np.all(report.margins > 0.0)
        assert report.is_ess


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("matrix, radius", [
    (-np.eye(2), 0.1),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e306),
], ids=["-eye", "antisymmetric"])
def test_denormalized_ess_whose_terms_overflow_at_finite_totals_reads_the_frequencies(matrix,
                                                                                      radius):
    # |candidate| = 2e307 is finite, but each term x . f(x) is near 1e614: the frequency margin
    # y_hat . f(x) - y . f(x) is finite, and it is taken quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = denormalized_ess_check(OrthantPoint([1e307, 1e307]), Linear(matrix), radius, 5, 0)
    x = report.samples
    if radius == 0.1:  # every sample rounds to the candidate
        np.testing.assert_array_equal(report.margins, np.zeros(5))
        assert report.indeterminate == 5 and report.parallel_samples == 5
    else:  # f(x) = (x_1, -x_0): y . f(x) = 0, so the margin is (x_1 - x_0) / 2
        np.testing.assert_allclose(report.margins, (x[:, 1] - x[:, 0]) / 2.0, rtol=0,
                                   atol=1e294)
        assert np.all(np.abs(report.margins) > 1e300)


def test_denormalized_parallel_detection():
    from simplexdyn.analysis import _sine_to_direction

    states = np.array([[2.0, 2.0], [3.0, 1.0], [0.5, 0.5]])
    sines = _sine_to_direction(states, np.array([1.0, 1.0]))
    assert sines[0] <= 1e-12 and sines[2] <= 1e-12
    assert sines[1] > 0.1


# ---------------------------------------------------------------------------
# lyapunov_monitor
# ---------------------------------------------------------------------------


def test_lyapunov_hawk_dove_descends_and_converges():
    traj = integrate(
        Replicator(Linear(HAWK_DOVE)), SimplexPoint(np.array([0.9, 0.1])), 0.01, 5000
    )
    report = lyapunov_monitor(traj, CENTER)
    assert report.monotone
    assert report.converged
    assert report.max_increase <= 1e-9
    assert report.initial_value == pytest.approx(
        kl(CENTER, SimplexPoint(np.array([0.9, 0.1]))), abs=1e-14
    )
    assert report.values.shape == (len(traj),)


def test_lyapunov_rps_is_conserved():
    traj = integrate(
        Replicator(Linear(RPS)), SimplexPoint(np.array([0.5, 0.25, 0.25])), 1e-3, 20000
    )
    report = lyapunov_monitor(traj, barycenter(3))
    assert abs(report.final_value - report.initial_value) <= 1e-6
    assert report.monotone  # numerical wiggle stays under the slack
    assert not report.converged


def test_lyapunov_on_a_blown_up_abundance_run_is_quiet():
    # diag(1, 0.9) from (1, 1): the abundances overflow to 4.8e172 before the run truncates
    start = OrthantPoint(np.array([1.0, 1.0]))
    traj = integrate(LotkaVolterra(Linear(np.diag([1.0, 0.9]))), start, 0.1, 100, target=start)
    assert traj.truncated and traj.states.max() > 1e170
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lyapunov_monitor(traj, start)
    assert report.parallel_before_convergence == 0
    assert not report.monotone and not report.converged


def test_lyapunov_of_a_start_frequency_that_underflows_to_zero_is_infinite_and_quiet():
    # 5e-324 / 2.0 rounds to 0, and its log warned "divide by zero encountered in log"
    kind, target = LotkaVolterra(Linear(np.array([[-1.0, -0.2], [-0.3, -1.0]]))), [0.8, 0.7]
    traj = integrate(kind, OrthantPoint([5e-324, 2.0]), 0.01, 150, target=OrthantPoint(target))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lyapunov_monitor(traj, OrthantPoint(target))
    assert traj.truncated and report.initial_value == report.final_value == np.inf


def test_sines_of_a_blown_up_abundance_run_are_finite_and_quiet():
    # the last of the 13 rows overflows np.linalg.norm; read as frequencies it keeps its angle,
    # where inf / inf gave NaN
    start = OrthantPoint(np.array([1.0, 1.0]))
    traj = integrate(LotkaVolterra(Linear(np.diag([1.0, 0.9]))), start, 0.1, 100, target=start)
    assert len(traj) == 13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sines = _sine_to_direction(_per_total(traj.states), _per_total(start.coords))
    assert np.all(np.isfinite(sines))
    assert abs(sines[-1] - np.sqrt(0.5)) < 1e-12


def test_lyapunov_constant_trajectory_at_target():
    traj = integrate(Replicator(Linear(RPS)), barycenter(3), 0.1, 20)
    report = lyapunov_monitor(traj, barycenter(3))
    assert report.monotone and report.converged
    assert report.final_value <= 1e-12
    assert report.max_increase == 0.0


def test_lyapunov_coupled_uses_summed_divergence():
    p0 = SimplexPoint(np.array([0.6, 0.4]))
    q0 = SimplexPoint(np.array([0.3, 0.7]))
    s0 = CoupledState(p0, q0)
    target = CoupledState(CENTER, CENTER)
    traj = integrate(CoupledReplicator(Linear(PENNIES), Linear(-PENNIES.T)), s0, 1e-3, 10)
    report = lyapunov_monitor(traj, target)
    assert report.initial_value == pytest.approx(
        kl(CENTER, p0) + kl(CENTER, q0), abs=1e-14
    )


def test_lyapunov_shifted_lv_descends_without_parallel_states():
    land = Custom(lambda x: HAWK_DOVE @ (x / x.sum()))
    traj = integrate(
        ShiftedLotkaVolterra(land), OrthantPoint(np.array([3.0, 1.0])), 0.01, 5000
    )
    report = lyapunov_monitor(traj, OrthantPoint(np.array([1.0, 1.0])))
    assert report.monotone
    assert report.max_increase == 0.0
    assert report.parallel_before_convergence == 0


def test_lyapunov_kind_and_dimension_guards():
    traj = integrate(Replicator(Linear(HAWK_DOVE)), CENTER, 0.1, 5)
    with pytest.raises(KindMismatchError):
        lyapunov_monitor(traj, OrthantPoint(np.array([1.0, 1.0])))
    with pytest.raises(DimensionMismatchError):
        lyapunov_monitor(traj, barycenter(3))
    lv = integrate(
        LotkaVolterra(LogLinear(np.zeros((2, 2)), np.array([1.0, 1.0]))),
        OrthantPoint(np.array([1.0, 1.0])),
        0.1,
        5,
    )
    with pytest.raises(KindMismatchError):
        lyapunov_monitor(lv, CENTER)


# ---------------------------------------------------------------------------
# fisher_theorem_check
# ---------------------------------------------------------------------------


def test_fisher_theorem_random_symmetric_matrix():
    rng = np.random.default_rng(55)
    M = rng.uniform(-1.0, 1.0, size=(3, 3))
    A = (M + M.T) / 2.0
    raw = rng.uniform(0.1, 1.0, size=3)
    traj = integrate(Replicator(Linear(A)), SimplexPoint(raw / raw.sum()), 1e-3, 1000)
    assert fisher_theorem_check(traj) <= 1e-5


def test_fisher_theorem_residual_shrinks_quadratically():
    rng = np.random.default_rng(56)
    M = rng.uniform(-1.0, 1.0, size=(3, 3))
    A = (M + M.T) / 2.0
    raw = rng.uniform(0.1, 1.0, size=3)
    x0 = SimplexPoint(raw / raw.sum())
    coarse = fisher_theorem_check(integrate(Replicator(Linear(A)), x0, 2e-3, 500))
    fine = fisher_theorem_check(integrate(Replicator(Linear(A)), x0, 1e-3, 1000))
    assert 3.0 <= coarse / fine <= 5.0


def test_fisher_theorem_flat_matrix_has_zero_residual():
    traj = integrate(Replicator(Linear(np.ones((3, 3)))), barycenter(3), 0.01, 50)
    assert fisher_theorem_check(traj) <= 1e-12


def test_fisher_theorem_instantaneous_value():
    # at (0.5, 0.5) with A = diag(1, 2): dV/dt = variance = 0.0625
    traj = integrate(Replicator(Linear(np.diag([1.0, 2.0]))), CENTER, 1e-4, 10)
    assert traj.diagnostics.fitness_variance[0] == pytest.approx(0.0625, abs=1e-12)
    assert fisher_theorem_check(traj) <= 1e-7


def test_fisher_theorem_guards():
    with pytest.raises(NotSymmetricError):
        fisher_theorem_check(
            integrate(Replicator(Linear(HAWK_DOVE)), CENTER, 0.01, 10)
        )
    lv = integrate(
        LotkaVolterra(LogLinear(np.zeros((2, 2)), np.array([1.0, 1.0]))),
        OrthantPoint(np.array([1.0, 1.0])),
        0.01,
        10,
    )
    with pytest.raises(KindMismatchError):
        fisher_theorem_check(lv)
    nonlinear = integrate(
        Replicator(LogLinear(np.eye(2), np.zeros(2))), CENTER, 0.01, 10
    )
    with pytest.raises(KindMismatchError):
        fisher_theorem_check(nonlinear)


# ---------------------------------------------------------------------------
# gradient_consistency_check
# ---------------------------------------------------------------------------


def test_gradient_consistency_constant_gradient():
    assert gradient_consistency_check(barycenter(3), np.full(3, 4.0), 50, 0) <= 1e-12


def test_gradient_consistency_examples():
    x = SimplexPoint(np.array([0.5, 0.25, 0.25]))
    assert gradient_consistency_check(x, RPS @ x.coords, 100, 1) <= 1e-12
    assert gradient_consistency_check(barycenter(3), np.array([1.0, 2.0, 3.0]), 100, 2) <= 1e-12


def test_gradient_consistency_random_pairs():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        raw = rng.uniform(0.05, 1.0, size=n)
        x = SimplexPoint(raw / raw.sum())
        grad = rng.standard_normal(n)
        worst = max(worst, gradient_consistency_check(x, grad, 4, int(rng.integers(1 << 31))))
    assert worst <= 1e-10


def test_gradient_consistency_rejects_bad_probes():
    with pytest.raises(ValueError):
        gradient_consistency_check(barycenter(3), np.zeros(3), 0, 0)


@pytest.mark.parametrize("probes", [True, 4.0])
def test_gradient_consistency_refuses_a_bool_or_float_probe_count(probes):
    with pytest.raises(ValueError, match=f"probes must be a positive integer, got {probes}"):
        gradient_consistency_check(barycenter(3), np.zeros(3), probes, 0)


@pytest.mark.parametrize("seed", [True, 1.5])
def test_gradient_consistency_refuses_a_bool_or_float_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
        gradient_consistency_check(barycenter(3), np.zeros(3), 4, seed)


def test_gradient_consistency_takes_a_numpy_integer_seed():
    grad = np.array([1.0, -2.0, 0.5])
    assert (gradient_consistency_check(barycenter(3), grad, 4, np.int64(3))
            == gradient_consistency_check(barycenter(3), grad, 4, 3))

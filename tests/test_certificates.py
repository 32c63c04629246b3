"""The certificate kernels and the RK4 loop against the code they replaced.

The ESS samplers, the gradient check and ``orbit_gap`` work on whole batches,
and ``fisher_theorem_check`` reads the statistics its run recorded.  The three
ESS checks share one sampled-margin function, the Lotka-Volterra bridges read
the shared frequency and block helpers, and ``localize_divergence`` evaluates
one grid of perturbed points.  Each run resolves its payoffs once, and a
single-block exp-family run takes its normalizer inline.  The ``_ref_*``
functions below are verbatim
copies of the code they replaced; every output must equal theirs to the bit,
and every error must carry the same message.
"""

import dataclasses
import itertools
import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexdyn import (
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
    coupled_ess_check,
    coupled_exp_family_solver,
    coupled_replicator_field,
    denormalized_ess_check,
    dynamics,
    ecological_field,
    ess_check,
    exp_family_solver,
    exp_map,
    fisher_theorem_check,
    gradient_consistency_check,
    integrate,
    kl_formula,
    localize_divergence,
    lv_correspondence_residual,
    lv_field,
    normalize_lv_trajectory,
    orbit_gap,
    replicator_field,
    shifted_lv_field,
)
from simplexdyn.analysis import (
    PARALLEL_TOL,
    _ess_report,
    _orthant_ball_samples,
    _require_fisher_kind,
    _sampling_rng,
    _sine_to_direction,
    _tangent_ball_samples,
)
from simplexdyn.core import (
    TANGENT_TOL,
    TangentVector,
    evaluate_landscape,
    evaluate_landscape_batch,
    resolve_payoff,
)
from simplexdyn.dynamics import (
    _RECORD_CHUNK,
    POS_FLOOR,
    CoupledReplicator,
    Diagnostics,
    Trajectory,
    _blocks,
    _check_steps,
    _frequencies,
    _kl_rows,
    _positive,
    _state_vector,
    _target_vector,
    _uniform_step,
    logsumexp,
)
from simplexdyn.errors import (
    DimensionMismatchError,
    EmptyTrajectoryError,
    EvaluationFailure,
    KindMismatchError,
    NotDiagonalError,
    NotSimplexPreservingError,
    RadiusTooLargeError,
    SimplexDynError,
    StepTooLargeError,
)
from simplexdyn.geometry import (
    OFFDIAG_TOL,
    LocalizationReport,
    MetricTensor,
    inner_product,
    shahshahani_gradient,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def _ref_tangent_ball_samples(rng, centers, radius, count):
    out = np.empty((count, sum(center.size for center in centers)))
    for k in range(count):
        col = 0
        for center in centers:
            n = center.size
            while True:
                z = rng.standard_normal(n)
                z -= z.mean()
                norm = float(np.linalg.norm(z))
                if norm > 1e-12:
                    break
            point = center + z * (radius * rng.random() ** (1.0 / (n - 1)) / norm)
            if not np.all(point > 0.0):
                raise RadiusTooLargeError(
                    f"sample left the interior: radius {radius} too large around {center}"
                )
            out[k, col : col + n] = point / point.sum()
            col += n
    return out


def _ref_orthant_ball_samples(rng, center, radius, count):
    n = center.size
    out = np.empty((count, n))
    for k in range(count):
        while True:
            z = rng.standard_normal(n)
            norm = float(np.linalg.norm(z))
            if norm > 1e-12:
                break
        point = center + z * (radius * rng.random() ** (1.0 / n) / norm)
        if not np.all(point > 0.0):
            raise RadiusTooLargeError(
                f"sample left the positive orthant: radius {radius} too large around {center}"
            )
        out[k] = point
    return out


def _ref_gradient_consistency_check(x, potential_grad, probes, seed, larger=np.maximum):
    """The per-probe loop; ``larger`` keeps the running worst defect (np.maximum keeps a NaN)."""
    if int(probes) != probes or probes < 1:
        raise ValueError(f"probes must be a positive integer, got {probes}")
    grad_vec = np.asarray(potential_grad, dtype=float)
    metric_grad = shahshahani_gradient(x, grad_vec)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(probes)):
        w = rng.standard_normal(x.dim)
        w -= w.mean()
        probe = TangentVector(w)
        lhs = inner_product(x, metric_grad, probe)
        rhs = float(np.dot(grad_vec, w))
        worst = larger(worst, abs(lhs - rhs))
    return float(worst)


def _ref_orbit_gap(states, reference, stride=1):
    states = np.asarray(states, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if reference.shape[0] < 2:
        raise EmptyTrajectoryError("reference path needs at least 2 states")
    p0 = reference[:-1]
    seg = reference[1:] - p0
    seg_sq = np.einsum("ij,ij->i", seg, seg)
    seg_sq = np.where(seg_sq == 0.0, 1.0, seg_sq)
    worst = 0.0
    for q in states[::stride]:
        t = np.clip(((q - p0) * seg).sum(axis=1) / seg_sq, 0.0, 1.0)
        closest = p0 + t[:, None] * seg
        d_sq = ((q - closest) ** 2).sum(axis=1)
        worst = max(worst, float(d_sq.min()))
    return float(np.sqrt(worst))


def _ref_fisher_theorem_check(traj):
    kind = traj.kind
    _require_fisher_kind(kind)
    dt = _uniform_step(traj, "check")
    states = traj.states
    payoff = evaluate_landscape_batch(kind.f, states)
    potential = 0.5 * np.einsum("ij,ij->i", states, payoff)
    mean = np.einsum("ij,ij->i", states, payoff)
    variance = np.einsum("ij,ij->i", states, (payoff - mean[:, None]) ** 2)
    derivative = (potential[2:] - potential[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(derivative - variance[1:-1])))


def _outcome(call):
    """A call's result, or the type and message of the package error it raised."""
    try:
        return call()
    except (SimplexDynError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same(reference, batched):
    expected, got = _outcome(reference), _outcome(batched)
    if isinstance(expected, tuple):
        assert got == expected
    elif isinstance(expected, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == expected.shape
        assert np.array_equal(got, expected)
    else:
        assert isinstance(got, float) and np.float64(got).tobytes() == np.float64(expected).tobytes()


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _simplex(rng, n, floor):
    weights = rng.uniform(floor, 1.0, n)
    return weights / weights.sum()


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(2, 12), min_size=1, max_size=2),
    floor=st.sampled_from([0.01, 0.2, 1.0]),
    reach=st.floats(0.05, 2.5),
    count=st.integers(1, 40),
)
def test_tangent_sampler_equals_the_loop(seed, dims, floor, reach, count):
    rng = np.random.default_rng(seed)
    centers = [_simplex(rng, n, floor) for n in dims]
    radius = reach * min(center.min() for center in centers)
    _assert_same(
        lambda: _ref_tangent_ball_samples(np.random.default_rng(seed), centers, radius, count),
        lambda: _tangent_ball_samples(np.random.default_rng(seed), centers, radius, count),
    )


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    reach=st.floats(0.05, 2.5),
    count=st.integers(1, 40),
)
def test_orthant_sampler_equals_the_loop(seed, n, reach, count):
    center = np.random.default_rng(seed).uniform(0.05, 5.0, n)
    radius = reach * center.min()
    _assert_same(
        lambda: _ref_orthant_ball_samples(np.random.default_rng(seed), center, radius, count),
        lambda: _orthant_ball_samples(np.random.default_rng(seed), center, radius, count),
    )


@pytest.mark.parametrize("seed", range(6))
def test_radius_error_names_the_first_bad_draw(seed):
    """Sample-major, block-minor: either block can be the first to leave the interior."""
    centers = [np.array([0.1, 0.9]), np.array([0.12, 0.5, 0.38])]
    expected = _outcome(lambda: _ref_tangent_ball_samples(np.random.default_rng(seed), centers,
                                                          0.2, 50))
    assert expected[0] is RadiusTooLargeError
    _assert_same(
        lambda: _ref_tangent_ball_samples(np.random.default_rng(seed), centers, 0.2, 50),
        lambda: _tangent_ball_samples(np.random.default_rng(seed), centers, 0.2, 50),
    )


class _ConstantFirstNormal:
    """A generator whose stream starts with one constant normal vector.

    It models a real stream: its state covers whether that draw is still
    due, so a sampler that rewinds the state sees the constant again.
    """

    def __init__(self, seed, value):
        self._rng = np.random.default_rng(seed)
        self._value = value
        self._due = True
        self.bit_generator = self

    @property
    def state(self):
        return self._due, self._rng.bit_generator.state

    @state.setter
    def state(self, state):
        self._due, self._rng.bit_generator.state = state

    def standard_normal(self, n):
        if self._due:
            self._due = False
            return np.full(n, self._value)
        return self._rng.standard_normal(n)

    def random(self):
        return self._rng.random()


@pytest.mark.parametrize("value", [0.0, 0.7])
@pytest.mark.parametrize("dims", [(3,), (2, 4)])
def test_a_refused_first_draw_gives_the_same_samples(dims, value):
    rng = np.random.default_rng(11)
    centers = [_simplex(rng, n, 0.2) for n in dims]
    radius = 0.5 * min(center.min() for center in centers)
    expected = _ref_tangent_ball_samples(_ConstantFirstNormal(5, value), centers, radius, 30)
    got = _tangent_ball_samples(_ConstantFirstNormal(5, value), centers, radius, 30)
    assert np.array_equal(got, expected)
    center = centers[0] * 2.0
    expected = _ref_orthant_ball_samples(_ConstantFirstNormal(5, value), center, radius, 30)
    assert np.array_equal(
        _orthant_ball_samples(_ConstantFirstNormal(5, value), center, radius, 30), expected
    )


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e300, 1.7e308]),
    probes=st.integers(1, 60),
)
@example(seed=19, n=2, scale=1.7e308, probes=5)  # a NaN defect: the residual is NaN
def test_gradient_check_equals_the_loop(seed, n, scale, probes):
    rng = np.random.default_rng(seed)
    x = SimplexPoint(_simplex(rng, n, 0.05))
    with np.errstate(all="ignore"):
        grad = rng.standard_normal(n) * scale
        _assert_same(
            lambda: _ref_gradient_consistency_check(x, grad, probes, seed),
            lambda: gradient_consistency_check(x, grad, probes, seed),
        )


@pytest.mark.kernel_pinned
def test_gradient_check_reads_a_nan_defect_as_a_nan_residual_and_refuses_a_nan_gradient():
    x = SimplexPoint(np.array([0.5, 0.5]))
    grad = np.array([1.7e308, -1.7e308])  # both sides overflow to inf for the larger probes
    with np.errstate(all="ignore"):
        w = np.random.default_rng(0).standard_normal((50, 2))
        w -= w.mean(axis=1, keepdims=True)
        defects = np.abs((x.coords * grad * w / x.coords).sum(axis=1) - w @ grad)
        assert np.isnan(defects).any() and not np.isnan(defects).all()
        # the replaced loop's max() skipped the NaN defects and read a finite residual
        assert np.isfinite(_ref_gradient_consistency_check(x, grad, 50, 0, larger=max))
        assert np.isnan(gradient_consistency_check(x, grad, 50, 0))
    _assert_same(
        lambda: _ref_gradient_consistency_check(x, [np.nan, 1.0], 5, 0),
        lambda: gradient_consistency_check(x, [np.nan, 1.0], 5, 0),
    )


# ---------------------------------------------------------------------------
# orbit_gap
# ---------------------------------------------------------------------------


def _polyline(rng, shape, m, n, scale):
    if shape == "walk":
        path = rng.standard_normal((m, n)).cumsum(axis=0)
    elif shape == "loop":  # a closed orbit traced over several laps
        t = np.linspace(0.0, 2.0 * np.pi * rng.integers(1, 4), m)
        path = np.outer(np.sin(t), rng.standard_normal(n)) + np.outer(np.cos(t),
                                                                      rng.standard_normal(n))
    else:  # points of a coarse grid: ties between segments
        path = rng.integers(-3, 4, (m, n)) * 0.25
    path = path * scale + rng.standard_normal(n) * scale
    repeat = rng.random(m) < 0.2  # zero-length segments
    repeat[0] = False
    path[repeat] = path[np.nonzero(repeat)[0] - 1]
    return path


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["walk", "loop", "grid"]),
    m=st.integers(2, 300),
    n=st.integers(1, 50),
    queries=st.integers(0, 80),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    stride=st.integers(1, 3),
)
def test_orbit_gap_equals_the_loop(seed, shape, m, n, queries, scale, stride):
    rng = np.random.default_rng(seed)
    reference = _polyline(rng, shape, m, n, scale)
    near = rng.integers(0, m - 1, queries)
    states = reference[near] + rng.standard_normal((queries, n)) * scale * 10.0 ** rng.uniform(
        -12, 0, (queries, 1))
    on_path = rng.random(queries) < 0.4  # rows, and points between rows, of the reference
    t = np.where(rng.random(queries) < 0.5, 0.0, rng.random(queries))[:, None]
    states[on_path] = (reference[near] + t * (reference[near + 1] - reference[near]))[on_path]
    _assert_same(
        lambda: _ref_orbit_gap(states, reference, stride),
        lambda: orbit_gap(states[::stride], reference),
    )


def test_orbit_gap_needs_two_reference_states():
    states = np.ones((3, 2))
    _assert_same(lambda: _ref_orbit_gap(states, states[:1]), lambda: orbit_gap(states, states[:1]))
    assert _outcome(lambda: orbit_gap(states, states[:1]))[0] is EmptyTrajectoryError


@pytest.mark.parametrize("states, reference", [
    (np.ones((3, 2)), np.ones((4, 3))),  # numpy's broadcast error before
    (np.ones((3, 2)), np.ones(4)),  # numpy's einsum subscripts error before
    (np.ones(2), np.ones((4, 2))),
    (np.ones((0, 2)), np.ones((4, 3))),
])
def test_orbit_gap_refuses_rows_of_other_shapes_naming_both(states, reference):
    with pytest.raises(DimensionMismatchError) as info:
        orbit_gap(states, reference)
    assert f"{states.shape}" in str(info.value) and f"{reference.shape}" in str(info.value)


def _walk_and_queries(seed):
    """A 100-vertex walk (four segment blocks) and queries near it."""
    rng = np.random.default_rng(seed)
    reference = rng.standard_normal((100, 3)).cumsum(axis=0)
    return reference, reference[::3] + 0.3 * rng.standard_normal((34, 3))


@pytest.mark.parametrize("rows", [[5], [0, 5, 33], list(range(34))])
@pytest.mark.parametrize("whole_row", [False, True])
def test_orbit_gap_on_nan_query_rows_equals_the_loop_without_warnings(rows, whole_row):
    reference, states = _walk_and_queries(3)
    states[rows, slice(None) if whole_row else 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same(lambda: _ref_orbit_gap(states, reference),
                     lambda: orbit_gap(states, reference))


@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("where", ["states", "reference"])
def test_orbit_gap_on_inf_and_huge_inputs_equals_the_loop(value, where):
    reference, states = _walk_and_queries(4)
    (states if where == "states" else reference)[7, 2] = value
    with np.errstate(all="ignore"):  # the loop warns on these inputs itself
        _assert_same(lambda: _ref_orbit_gap(states, reference),
                     lambda: orbit_gap(states, reference))


def test_orbit_gap_on_a_blown_up_run_equals_the_loop_without_warnings():
    # Lotka-Volterra diag(1, 0.9) from (1, 1) overflows to 4.8e172 before it truncates
    traj = integrate(LotkaVolterra(Linear(np.diag([1.0, 0.9]))), OrthantPoint([1.0, 1.0]), 0.1, 100)
    assert traj.truncated and traj.states.max() > 1e170
    with np.errstate(all="ignore"):  # the loop warns on these rows itself
        expected = _ref_orbit_gap(traj.states, traj.states)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orbit_gap(traj.states, traj.states) == expected


def _tied_polyline(seed):
    """A few non-dyadic vertices visited many times: segments of different blocks tie."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    vertices = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 6)), n)) * 10.0 ** rng.uniform(-3, 3)
    reference = vertices[rng.integers(0, len(vertices), int(rng.integers(33, 140)))]
    spread = np.abs(vertices).max() * 10.0 ** rng.uniform(-3, 1)
    states = vertices[rng.integers(0, len(vertices), 40)] + rng.standard_normal((40, n)) * spread
    return states, reference


#: Seeds of ``_tied_polyline`` (found among 12,000) on which pruning by the plain bound, with
#: no rounding margin, skips the segment that attains a minimum.
MARGIN_SEEDS = [435, 542, 3430, 4749, 6358, 6773, 6957, 10522, 10857, 11402]


@pytest.mark.parametrize("seed", MARGIN_SEEDS)
def test_orbit_gap_keeps_ties_that_differ_by_rounding(seed):
    states, reference = _tied_polyline(seed)
    _assert_same(lambda: _ref_orbit_gap(states, reference), lambda: orbit_gap(states, reference))


# ---------------------------------------------------------------------------
# Fisher's theorem
# ---------------------------------------------------------------------------


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    steps=st.integers(1, 300),
    dt=st.sampled_from([1e-3, 0.01, 0.1]),
    log=st.booleans(),
)
def test_fisher_on_the_recorded_statistics_equals_a_second_payoff_pass(seed, n, steps, dt, log):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2)
    land = Linear(a + a.T)
    x0 = SimplexPoint(_simplex(rng, n, 0.05))
    traj = exp_family_solver(land, x0, dt, steps) if log else integrate(
        Replicator(land), x0, dt, steps)
    _assert_same(lambda: _ref_fisher_theorem_check(traj), lambda: fisher_theorem_check(traj))


# ---------------------------------------------------------------------------
# one sampled-ESS function, the Lotka-Volterra bridges and the localize grid
# ---------------------------------------------------------------------------


def _ref_simplex_ess(kind, target, radius, samples, seed):
    hat, split = _state_vector(kind, target, "target")
    blocks = _blocks(kind, split)
    rng = _sampling_rng(radius, samples, seed)
    points = _tangent_ball_samples(rng, [hat[own] for own, _, _ in blocks], radius, int(samples))
    payoffs = [
        evaluate_landscape_batch(land, points[:, own], None if other is None else points[:, other])
        for own, land, other in blocks
    ]
    margins = reduce(np.add, [payoff @ hat[own] for (own, _, _), payoff in zip(blocks, payoffs)])
    for (own, _, _), payoff in zip(blocks, payoffs):
        margins = margins - np.einsum("ij,ij->i", points[:, own], payoff)
    return _ess_report(margins, points, radius, samples)


def _ref_denormalized_ess_check(candidate, f, radius, samples, seed):
    rng = _sampling_rng(radius, samples, seed)
    points = _orthant_ball_samples(rng, candidate.coords, radius, int(samples))
    payoff = evaluate_landscape_batch(f, points)
    margins = payoff @ candidate.coords / candidate.total - np.einsum(
        "ij,ij->i", points, payoff
    ) / points.sum(axis=1)
    parallel = int(np.sum(_sine_to_direction(points, candidate.coords) <= PARALLEL_TOL))
    return _ess_report(margins, points, radius, samples, parallel)


def _ref_localize_divergence(divergence, x, h):
    if not (float(h) > 0.0):
        raise ValueError(f"step h must be > 0, got {h}")
    base = x.coords
    n = base.size
    if float(base.min()) <= h:
        raise StepTooLargeError(
            f"step {h} is not smaller than the smallest coordinate {base.min()}"
        )
    eye = np.eye(n)
    mixed = np.empty((n, n))
    for i in range(n):
        a_plus = base + h * eye[i]
        a_minus = base - h * eye[i]
        for j in range(n):
            b_plus = base + h * eye[j]
            b_minus = base - h * eye[j]
            mixed[i, j] = (
                divergence(a_plus, b_plus)
                - divergence(a_plus, b_minus)
                - divergence(a_minus, b_plus)
                + divergence(a_minus, b_minus)
            ) / (4.0 * h * h)
    off = mixed - np.diag(np.diag(mixed))
    max_offdiag = float(np.max(np.abs(off)))
    if max_offdiag > OFFDIAG_TOL:
        raise NotDiagonalError(
            f"largest off-diagonal magnitude {max_offdiag} exceeds {OFFDIAG_TOL}"
        )
    diag = np.diag(mixed)
    if np.all(diag > 0.0):
        sign = 1
    elif np.all(diag < 0.0):
        sign = -1
    else:
        raise NotDiagonalError(
            f"localized diagonal is indefinite (mixed signs): {diag}"
        )
    return LocalizationReport(metric=MetricTensor(np.abs(diag)), sign=sign, max_offdiag=max_offdiag)


def _ref_normalize_lv_trajectory(traj):
    if traj.kind.state_type is not OrthantPoint:
        raise KindMismatchError(
            f"normalization applies to abundance trajectories, got {type(traj.kind).__name__}"
        )
    freqs = _frequencies(traj.kind, traj.states, None)[0]
    d = traj.diagnostics
    diagnostics = Diagnostics(
        mean_fitness=d.mean_fitness.copy(),
        fitness_variance=d.fitness_variance.copy(),
        divergence_to_target=d.divergence_to_target.copy(),
        state_total=freqs.sum(axis=1),
        normalizer=None if d.normalizer is None else d.normalizer.copy(),
    )
    return Trajectory(
        kind=traj.kind,
        times=traj.times.copy(),
        states=freqs,
        diagnostics=diagnostics,
        split=traj.split,
        truncated=traj.truncated,
        failure=traj.failure,
    )


def _ref_lv_correspondence_residual(traj):
    if traj.kind.state_type is not OrthantPoint:
        raise KindMismatchError(
            f"correspondence residual applies to abundance trajectories, got {type(traj.kind).__name__}"
        )
    dt = _uniform_step(traj, "correspondence residual")
    totals = traj.states.sum(axis=1)
    freqs = traj.states / totals[:, None]
    payoff = evaluate_landscape_batch(traj.kind.f, traj.states)
    if isinstance(traj.kind, ShiftedLotkaVolterra):
        payoff = payoff / totals[:, None]
    mean = np.einsum("ij,ij->i", freqs, payoff)
    rhs = freqs * (payoff - mean[:, None])
    dy = (freqs[2:] - freqs[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dy - rhs[1:-1])))


def _bits(value):
    """``value`` with every float and array as its bytes, and every report field by field.

    A kind is compared by identity: both sides must carry the input's own kind object.
    """
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return "float", np.float64(value).tobytes()
    if isinstance(value, (LotkaVolterra, ShiftedLotkaVolterra)):
        return "kind", id(value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (field.name, _bits(getattr(value, field.name))) for field in dataclasses.fields(value))
    return type(value).__name__, value


def _assert_same_bits(reference, shared):
    assert _bits(_outcome(shared)) == _bits(_outcome(reference))


def _game(rng, n, log_linear):
    matrix = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-1, 1)
    return LogLinear(matrix, rng.standard_normal(n)) if log_linear else Linear(matrix)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    reach=st.floats(0.05, 1.5),
    samples=st.integers(1, 300),
    coupled=st.booleans(),
)
def test_simplex_and_coupled_ess_equal_the_block_function_they_replaced(
    seed, n, reach, samples, coupled
):
    rng = np.random.default_rng(seed)
    p = SimplexPoint(_simplex(rng, n, 0.05))
    f = _game(rng, n, False)
    if coupled:
        m = int(rng.integers(2, 6))
        q = SimplexPoint(_simplex(rng, m, 0.05))
        f, g = Linear(rng.standard_normal((n, m))), Linear(rng.standard_normal((m, n)))
        radius = reach * min(p.coords.min(), q.coords.min())
        _assert_same_bits(
            lambda: _ref_simplex_ess(CoupledReplicator(f, g), CoupledState(p, q), radius,
                                     samples, seed),
            lambda: coupled_ess_check(p, q, f, g, radius, samples, seed))
    else:
        radius = reach * p.coords.min()
        _assert_same_bits(lambda: _ref_simplex_ess(Replicator(f), p, radius, samples, seed),
                          lambda: ess_check(p, f, radius, samples, seed))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    reach=st.floats(0.05, 1.5),
    samples=st.integers(1, 300),
    log_linear=st.booleans(),
    parallel=st.booleans(),
)
def test_denormalized_ess_equals_the_fork_it_replaced(seed, n, reach, samples, log_linear,
                                                       parallel):
    rng = np.random.default_rng(seed)
    c = OrthantPoint(rng.uniform(0.1, 3.0, n) if not parallel else np.full(n, 0.5))
    f = _game(rng, n, log_linear)
    radius = reach * c.coords.min()
    _assert_same_bits(lambda: _ref_denormalized_ess_check(c, f, radius, samples, seed),
                      lambda: denormalized_ess_check(c, f, radius, samples, seed))


def test_denormalized_ess_of_a_simplex_candidate_is_a_kind_mismatch():
    with pytest.raises(KindMismatchError, match="LotkaVolterra requires a OrthantPoint target"):
        denormalized_ess_check(SimplexPoint(np.array([0.5, 0.5])), Linear(np.eye(2)), 0.1, 10, 0)


def _sqdist(a, b):
    d = np.asarray(a) - np.asarray(b)
    return 0.5 * float(d @ d)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from([1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.3]),
    which=st.sampled_from(["kl", "sqdist", "quadratic", "kl_formula"]),
    data=st.data(),
)
def test_localize_on_one_grid_equals_the_double_loop(seed, h, which, data):
    # "kl_formula" itself takes the stacked path, one call per grid row; up to n = 40, so numpy's
    # unrolled pairwise row sum (n >= 8) runs too
    n = data.draw(st.integers(2, 40 if which == "kl_formula" else 8), label="n")
    rng = np.random.default_rng(seed)
    x = SimplexPoint(_simplex(rng, n, 0.02))
    if which == "quadratic":  # off-diagonal and indefinite forms reach both errors
        form = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 0)

        def divergence(a, b):
            d = a - b
            return float(d @ form @ d)
    else:
        divergence = _sqdist if which == "sqdist" else kl_formula
    calls = []

    def counted(a, b):
        calls.append(1)
        return divergence(a, b)

    tested = kl_formula if which == "kl_formula" else counted
    _assert_same_bits(lambda: _ref_localize_divergence(divergence, x, h),
                      lambda: localize_divergence(tested, x, h))
    assert len(calls) in ((0,) if tested is kl_formula else (0, 4 * n * n))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 50),
    scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 30.0]),
)
def test_exp_map_is_the_plain_quotient_to_the_bit(seed, n, scale):
    # from n = 8 numpy's sum is its unrolled pairwise reduction
    rng = np.random.default_rng(seed)
    x = SimplexPoint(_simplex(rng, n, 0.02))
    v = rng.standard_normal(n) * scale
    w = x.coords * np.exp(v - v.max())
    _assert_same_bits(lambda: w / w.sum(), lambda: exp_map(x, v).coords)


def _lv_run(seed, n, shifted, steps, dt, with_target):
    rng = np.random.default_rng(seed)
    f = _game(rng, n, bool(rng.integers(2)))
    kind = ShiftedLotkaVolterra(f) if shifted else LotkaVolterra(f)
    target = OrthantPoint(rng.uniform(0.2, 2.0, n)) if with_target else None
    return integrate(kind, OrthantPoint(rng.uniform(0.2, 2.0, n)), dt, steps, target=target)


LV_RUNS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    shifted=st.booleans(),
    steps=st.integers(1, 200),
    dt=st.sampled_from([1e-3, 0.01, 0.1, 0.5]),
    with_target=st.booleans(),
)


@PROPERTY
@given(**LV_RUNS)
def test_normalize_lv_trajectory_equals_the_field_by_field_copy(seed, n, shifted, steps, dt,
                                                                with_target):
    traj = _lv_run(seed, n, shifted, steps, dt, with_target)
    _assert_same_bits(lambda: _ref_normalize_lv_trajectory(traj),
                      lambda: normalize_lv_trajectory(traj))


@PROPERTY
@given(**LV_RUNS)
def test_lv_correspondence_residual_equals_its_own_frequencies_and_lookup(seed, n, shifted,
                                                                          steps, dt, with_target):
    traj = _lv_run(seed, n, shifted, steps, dt, with_target)
    _assert_same_bits(lambda: _ref_lv_correspondence_residual(traj),
                      lambda: lv_correspondence_residual(traj))


def test_the_lv_bridges_refuse_a_simplex_trajectory_as_before():
    traj = integrate(Replicator(Linear(np.eye(2))), SimplexPoint(np.array([0.4, 0.6])), 0.1, 5)
    for ref, shared in [(_ref_normalize_lv_trajectory, normalize_lv_trajectory),
                        (_ref_lv_correspondence_residual, lv_correspondence_residual)]:
        _assert_same_bits(lambda: ref(traj), lambda: shared(traj))
        assert isinstance(_outcome(lambda: shared(traj)), tuple)


# ---------------------------------------------------------------------------
# the RK4 loop, its fields and charts, and the payoff evaluator they call
# ---------------------------------------------------------------------------


def _ref_call_custom(evaluator, args, n):
    try:
        out = evaluator(*args)
    except Exception as exc:  # noqa: BLE001 - black-box evaluator
        raise EvaluationFailure(f"custom landscape evaluator raised: {exc!r}") from exc
    out = np.asarray(out, dtype=float)
    if out.shape != (n,):
        raise EvaluationFailure(f"custom landscape returned shape {out.shape}, expected ({n},)")
    return out


def _ref_shape_error(f, x, src):
    return DimensionMismatchError(
        f"{type(f).__name__} matrix shape {f.matrix.shape} does not match "
        f"state dimensions ({x.shape[-1]}, {src.shape[-1]})"
    )


def _ref_evaluate_landscape(f, x, other=None):
    x = np.asarray(x, dtype=float)
    src = x if other is None else np.asarray(other, dtype=float)
    # M.dot(x) on one state and X.dot(M.T) on rows keep the bits of M @ x and
    # X @ M.T, with less call overhead than either operator
    if isinstance(f, Linear):
        if f.matrix.shape != (x.shape[-1], src.shape[-1]):
            raise _ref_shape_error(f, x, src)
        return f.matrix.dot(src) if src.ndim == 1 else src.dot(f.matrix.T)
    if isinstance(f, LogLinear):
        if f.matrix.shape != (x.shape[-1], src.shape[-1]):
            raise _ref_shape_error(f, x, src)
        with np.errstate(invalid="ignore", divide="ignore"):
            logs = np.log(src)
        return (f.matrix.dot(logs) if logs.ndim == 1 else logs.dot(f.matrix.T)) + f.offset
    if isinstance(f, Custom):
        if x.ndim == 1:
            return _ref_call_custom(f.evaluator, (x,) if other is None else (x, src), x.size)
        rows = zip(x) if other is None else zip(x, src)
        return np.stack([_ref_call_custom(f.evaluator, row, x.shape[1]) for row in rows])
    if isinstance(f, Scaled):
        base = _ref_evaluate_landscape(f.base, x, other)
        if x.ndim == 1:
            return f.factor * (base - float(np.dot(x, base)))
        return f.factor * (base - np.einsum("ij,ij->i", x, base)[:, None])
    raise TypeError(f"not a landscape: {f!r}")


def _ref_make_field(kind, split=None):
    if isinstance(kind, Replicator):
        f = kind.f

        def field(x):
            fvec = _ref_evaluate_landscape(f, x)
            return x * (fvec - np.dot(x, fvec))

        return field
    if isinstance(kind, Ecological):
        g = kind.g

        def field(x):
            gvec = _ref_evaluate_landscape(g, x)
            residual = float(np.dot(x, gvec))
            # absolute, then relative to the size of the terms x_i g_i of a blown-up stage
            if abs(residual) > TANGENT_TOL and abs(residual) > TANGENT_TOL * np.abs(x * gvec).sum():
                raise NotSimplexPreservingError(
                    f"x . g(x) = {residual!r} violates aggregate neutrality"
                )
            return x * gvec

        return field
    if isinstance(kind, LotkaVolterra):
        f = kind.f

        def field(x):
            return x * _ref_evaluate_landscape(f, x)

        return field
    if isinstance(kind, ShiftedLotkaVolterra):
        f = kind.f

        def field(x):
            return x * _ref_evaluate_landscape(f, x) / x.sum()

        return field
    if isinstance(kind, CoupledReplicator):
        f, g = kind.f, kind.g

        def field(z):
            p = z[:split]
            q = z[split:]
            fvec = _ref_evaluate_landscape(f, p, q)
            gvec = _ref_evaluate_landscape(g, q, p)
            dp = p * (fvec - np.dot(p, fvec))
            dq = q * (gvec - np.dot(q, gvec))
            return np.concatenate([dp, dq])

        return field
    raise TypeError(f"unknown field kind: {kind!r}")


def _ref_direct_chart(blocks):
    """Record the integrated coordinates, each simplex block renormalized in place."""
    if len(blocks) == 1:  # the whole state

        def chart(y):
            y /= np.add.reduce(y)
            return y, y, None

    else:

        def chart(y):
            for block in blocks:
                view = y[block]
                view /= np.add.reduce(view)
            return y, y, None

    return chart


def _ref_log_chart(blocks):
    def chart(v):
        big_g = [logsumexp(v[block]) for block in blocks]
        x = np.concatenate([np.exp(v[block] - g) for block, g in zip(blocks, big_g)])
        return x, v, big_g[0] if len(big_g) == 1 else big_g

    return chart


def _ref_log_field(blocks, chart):
    def field(v):
        x = chart(v)[0]
        return np.concatenate(
            [_ref_evaluate_landscape(land, x[own], None if other is None else x[other])
             for own, land, other in blocks]
        )

    return field


def _ref_diagnostics(kind, states, target, split, normalizer=None):
    weights, target = _frequencies(kind, states, target)
    means, variances, divergences = [], [], []
    for own, land, other in _blocks(kind, split):
        payoff = _ref_evaluate_landscape(
            land, states[:, own], None if other is None else states[:, other]
        )
        w = weights[:, own]
        mean = np.einsum("ij,ij->i", w, payoff)
        means.append(mean)
        variances.append(np.einsum("ij,ij->i", w, (payoff - mean[:, None]) ** 2))
        if target is not None:
            divergences.append(_kl_rows(target[own], w))
    # reduce keeps one block's bits (np.sum would turn a -0.0 into 0.0)
    div = reduce(np.add, divergences) if divergences else np.full(states.shape[0], np.nan)
    mean, var = reduce(np.add, means), reduce(np.add, variances)
    return Diagnostics(mean, var, div, states.sum(axis=1), normalizer)


def _ref_rk4_step(field, y, dt):
    k1 = field(y)
    k2 = field(y + 0.5 * dt * k1)
    k3 = field(y + 0.5 * dt * k2)
    k4 = field(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _ref_run(kind, x0, dt, steps, target, log):
    _check_steps(dt, steps)
    start, split = _state_vector(kind, x0, "start")
    if target is not None:
        target = _target_vector(kind, target, start.size, split)
    blocks = _blocks(kind, split)
    simplex = () if kind.state_type is OrthantPoint else tuple(own for own, _, _ in blocks)
    if log:
        chart = _ref_log_chart(simplex)
        y, field = np.log(start), _ref_log_field(blocks, chart)
    else:
        chart = _ref_direct_chart(simplex)
        y, field = start, _ref_make_field(kind, split)
    states = [start]
    normalizers = [chart(y.copy())[2]]
    truncated = False
    failure = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(int(steps)):
            x, y, big_g = chart(_ref_rk4_step(field, y, dt))
            if not (x.min() > POS_FLOOR and x.max() < np.inf):
                truncated = True
                failure = f"positivity lost at step {k + 1} (t = {(k + 1) * dt:g})"
                break
            states.append(x)
            normalizers.append(big_g)
        states = np.array(states)
        normalizer = None if normalizers[0] is None else np.array(normalizers)
        diagnostics = _ref_diagnostics(kind, states, target, split, normalizer)
    return Trajectory(
        kind=kind,
        times=dt * np.arange(states.shape[0]),
        states=states,
        diagnostics=diagnostics,
        split=split,
        truncated=truncated,
        failure=failure,
    )


class _Affine:
    """A black-box payoff r - B y, with y the other population's state when there is one."""

    def __init__(self, matrix, offset):
        self.matrix, self.offset = matrix, offset

    def __call__(self, x, other=None):
        return self.offset - self.matrix.dot(x if other is None else other)


def _landscape(rng, n, m, which, scale):
    matrix = rng.standard_normal((n, m)) * scale
    if which == "linear":
        return Linear(matrix)
    if which == "log_linear":
        return LogLinear(matrix, rng.standard_normal(n))
    if which == "custom":
        return Custom(_Affine(matrix, rng.standard_normal(n)))
    base = _landscape(rng, n, m, ("linear", "log_linear", "custom")[rng.integers(3)], scale)
    return Scaled(base, rng.uniform(0.5, 2.0))


def _start(rng, kind, dims):
    if kind.state_type is OrthantPoint:
        return OrthantPoint(rng.uniform(0.2, 2.0, dims[0]))
    points = [SimplexPoint(_simplex(rng, n, 0.05)) for n in dims]
    return points[0] if len(points) == 1 else CoupledState(*points)


KINDS = ("replicator", "ecological", "lotka_volterra", "shifted_lotka_volterra", "coupled",
         "exp_family", "coupled_exp_family")


def _flow(seed, kind_name, n, which, scale, dt, steps, with_target):
    """(reference call, call) for one run on a random landscape."""
    rng = np.random.default_rng(seed)
    if kind_name.startswith("coupled"):
        dims = (n, int(rng.integers(2, 6)))
        shapes = [dims, dims[::-1]]
    else:
        dims, shapes = (n,), [(n, n)]
    lands = [_landscape(rng, a, b, which, scale) for a, b in shapes]
    if kind_name == "ecological" and rng.random() < 0.8:  # otherwise: not aggregate-neutral
        lands[0] = Scaled(lands[0], 1.0)
    kind = {"replicator": Replicator, "ecological": Ecological, "lotka_volterra": LotkaVolterra,
            "shifted_lotka_volterra": ShiftedLotkaVolterra, "exp_family": Replicator,
            "coupled": CoupledReplicator, "coupled_exp_family": CoupledReplicator}[kind_name](*lands)
    start = _start(rng, kind, dims)
    target = _start(rng, kind, dims) if with_target else None
    log = kind_name.endswith("exp_family")
    if kind_name == "exp_family":
        call = lambda: exp_family_solver(lands[0], start, dt, steps, target=target)  # noqa: E731
    elif kind_name == "coupled_exp_family":
        call = lambda: coupled_exp_family_solver(*lands, start, dt, steps, target=target)  # noqa: E731
    else:
        call = lambda: integrate(kind, start, dt, steps, target=target)  # noqa: E731
    return (lambda: _ref_run(kind, start, dt, steps, target, log)), call


def _assert_same_run(reference, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_bits(reference, call)


@pytest.mark.kernel_pinned
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    kind_name=st.sampled_from(KINDS),
    n=st.one_of(st.integers(2, 12), st.just(50)),
    which=st.sampled_from(["linear", "log_linear", "scaled", "custom"]),
    scale=st.sampled_from([0.1, 1.0, 10.0, 300.0]),
    dt=st.sampled_from([1e-3, 0.01, 0.1, 0.5]),
    steps=st.integers(1, 150),
    with_target=st.booleans(),
)
def test_every_run_equals_the_loop_with_a_payoff_dispatch_per_call(
    seed, kind_name, n, which, scale, dt, steps, with_target
):
    _assert_same_run(*_flow(seed, kind_name, n, which, scale, dt, steps, with_target))


def test_a_neutral_ecological_payoff_that_blows_up_truncates():
    # x . g rounds to 6.4e-4 in the blown-up stage; the absolute test alone raised
    # NotSimplexPreservingError "x . g(x) = 0.0006355343039603232 violates aggregate neutrality"
    reference, call = _flow(0, "ecological", 2, "scaled", 300.0, 0.1, 1, False)
    traj = call()
    assert traj.truncated and traj.failure == "positivity lost at step 1 (t = 0.1)"
    _assert_same_run(reference, call)


def _nan_past_share(q, p):
    """Drives the first type's share up until it passes 0.9, then the payoff is NaN."""
    return np.array([1.0, 0.0]) if q[0] < 0.9 else np.array([0.0, np.nan])


def _nan_past_abundance(x):
    """Grows the second type until it passes 2, then its payoff alone is NaN."""
    return np.array([-0.1, 1.0 if x[1] < 2.0 else np.nan, -0.1])


@pytest.mark.kernel_pinned
@pytest.mark.parametrize(
    "kind, start, dt, failure",
    [
        # overflow to NaN, overflow to inf, and an overshoot whose coordinates sum to 0
        (LotkaVolterra(Linear(np.eye(2))), OrthantPoint(np.ones(2)), 0.1, "step 13 (t = 1.3)"),
        (LotkaVolterra(Linear(np.diag([3.0, 3.0]))), OrthantPoint(np.ones(2)), 0.05,
         "step 9 (t = 0.45)"),
        (Replicator(Linear(np.diag([1000.0, -1000.0]))), SimplexPoint(np.array([0.5, 0.5])), 0.1,
         "step 1 (t = 0.1)"),
        # the second population turns NaN while the first stays finite (a row [p, NaN, NaN])
        (CoupledReplicator(Linear(np.zeros((2, 2))), Custom(_nan_past_share)),
         CoupledState(SimplexPoint([0.6, 0.4]), SimplexPoint([0.5, 0.5])), 0.1,
         "step 22 (t = 2.2)"),
        # one abundance, not the first, turns NaN (a row [a, NaN, a])
        (LotkaVolterra(Custom(_nan_past_abundance)), OrthantPoint(np.ones(3)), 0.1,
         "step 7 (t = 0.7)"),
        # the aggregate-slowed field overflows
        (ShiftedLotkaVolterra(Linear(np.diag([1000.0, 1000.0]))), OrthantPoint(np.ones(2)), 0.1,
         "step 29 (t = 2.9)"),
    ],
)
def test_blow_ups_truncate_as_before_without_warnings(kind, start, dt, failure):
    target = start
    _assert_same_run(lambda: _ref_run(kind, start, dt, 100, target, False),
                     lambda: integrate(kind, start, dt, 100, target=target))
    assert integrate(kind, start, dt, 100).failure == f"positivity lost at {failure}"


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("log, coupled", [(False, False), (True, False), (True, True)],
                         ids=["False", "True", "coupled"])
def test_exp_family_blow_ups_truncate_as_before_without_warnings(log, coupled):
    start = SimplexPoint(np.array([0.2, 0.3, 0.5]))
    if coupled:  # the chart appends the failing row's two normalizers before the cut
        f = Linear(np.array([[10.0, -10.0], [-10.0, 10.0], [3.0, 0.0]]))
        g = Linear(np.array([[10.0, -10.0, 0.0], [-10.0, 10.0, 1.0]]))
        kind, start = CoupledReplicator(f, g), CoupledState(start, SimplexPoint([0.4, 0.6]))
        call = lambda: coupled_exp_family_solver(f, g, start, 0.5, 50)  # noqa: E731
    else:
        f = Linear(np.diag([1000.0, -1000.0, 3.0]))
        kind = Replicator(f)
        call = lambda: (exp_family_solver(f, start, 0.5, 50) if log  # noqa: E731
                        else integrate(kind, start, 0.5, 50))
    _assert_same_run(lambda: _ref_run(kind, start, 0.5, 50, None, log), call)
    if coupled:
        traj = call()
        assert traj.failure == "positivity lost at step 4 (t = 2)"
        assert traj.diagnostics.normalizer.shape == (4, 2)


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("coupled", [False, True])
def test_an_exp_family_step_charts_four_times_per_population(coupled, monkeypatch):
    # the first stage reads the chart of the row just recorded: four charts per step and
    # population, and one for the start; a chart per stage would make five per step
    calls = []
    monkeypatch.setattr(dynamics, "logsumexp", lambda v: calls.append(v) or logsumexp(v))
    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    if coupled:
        start = CoupledState(SimplexPoint([0.6, 0.4]), SimplexPoint([0.5, 0.5]))
        coupled_exp_family_solver(Linear(pennies), Linear(-pennies.T), start, 0.01, 25)
    else:
        rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        exp_family_solver(Linear(rps), SimplexPoint([0.5, 0.3, 0.2]), 0.01, 25)
    assert len(calls) == (202 if coupled else 101)


_ZEEMAN = Linear(np.array([[0.0, 6.0, -4.0], [-3.0, 0.0, 5.0], [-1.0, 3.0, 0.0]]))
_COMPETITION = Linear(-np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.4], [0.1, 0.6, 1.0]]))
_TYPED_START = SimplexPoint(np.array([0.2, 0.3, 0.5]))


def _typed_step_run(run, dt, target=None):
    """(kind, start, log, call) of a 40-step run with step ``dt``."""
    if run == "scaled_replicator":
        kind, x0, log = Replicator(Scaled(_ZEEMAN, 0.5)), _TYPED_START, False
    elif run == "shifted_lv":
        kind, x0, log = ShiftedLotkaVolterra(_COMPETITION), OrthantPoint([0.5, 1.0, 1.5]), False
    else:
        kind, x0, log = Replicator(_ZEEMAN), _TYPED_START, run == "exp_family"
    if log:
        return kind, x0, log, lambda: exp_family_solver(_ZEEMAN, x0, dt, 40, target=target)
    return kind, x0, log, lambda: integrate(kind, x0, dt, 40, target=target)


@pytest.mark.parametrize("dt", [1, np.float32(0.05), np.float64(0.05), 0.05],
                         ids=["int", "float32", "float64", "float"])
@pytest.mark.parametrize("run", ["scaled_replicator", "shifted_lv", "exp_family"])
def test_a_step_size_that_is_not_a_python_float_keeps_its_bits(run, dt):
    # the step holds 0.5 * dt, dt and dt / 6 as 0-d float64 arrays: each run is the
    # float-scalar step's, to the bit (a float32 dt rounds its weights as a float32 does)
    kind, x0, log, call = _typed_step_run(run, dt)
    _assert_same_run(lambda: _ref_run(kind, x0, dt, 40, None, log), call)


@pytest.mark.parametrize("run, with_target", [("scaled_replicator", False), ("shifted_lv", False),
                                              ("replicator", True), ("exp_family", False)])
def test_a_fraction_step_runs_as_its_float_on_its_own_time_grid(run, with_target):
    # The float-scalar step carried a Fraction's dt * k3 as an object array: its states were
    # those of float(dt), but it summed the diagnostics in Python floats, and np.log of the
    # divergence column and np.exp of the log chart raised TypeError.  The weights of a
    # Fraction are those of float(dt), and so are the recorded times, float(dt) * arange.
    dt, target = Fraction(1, 20), _TYPED_START if with_target else None
    kind, x0, log, call = _typed_step_run(run, dt, target)
    as_float = _ref_run(kind, x0, float(dt), 40, target, log)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = call()
    assert _bits(traj) == _bits(as_float)
    if not (log or with_target):
        assert _ref_run(kind, x0, dt, 40, None, log).states.tobytes() == traj.states.tobytes()


@pytest.mark.parametrize("run", ["lotka_volterra", "exp_family"])
def test_a_fraction_step_that_truncates_reads_as_the_float_run(run):
    # the failure's t was dt * k formatted with :g, which Fraction.__format__ refuses
    if run == "lotka_volterra":
        dt, steps, kind = Fraction(1, 10), 100, LotkaVolterra(Linear(np.diag([1.0, 0.9])))
        call = lambda step: integrate(kind, OrthantPoint([1.0, 1.0]), step, steps)  # noqa: E731
    else:  # the normalizer rounds exp(v - G) off the simplex
        dt, steps = Fraction(1, 100), 200
        f = Linear(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]) + 1e8)
        call = lambda step: exp_family_solver(f, _TYPED_START, step, steps)  # noqa: E731
    _assert_same_run(lambda: call(float(dt)), lambda: call(dt))
    traj = call(dt)
    k = len(traj)
    assert traj.truncated and traj.failure.endswith(f" at step {k} (t = {float(dt) * k:g})")
    if run == "lotka_volterra":
        assert traj.failure == "positivity lost at step 13 (t = 1.3)"


def _ref_positive(x):
    return all(POS_FLOOR < v < np.inf for v in x.tolist())  # a NaN fails both


_EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, POS_FLOOR, float(np.nextafter(POS_FLOOR, 1.0)),
          5e-324, 1.7e308, 1.0]


def test_the_positivity_test_keeps_the_comparison_loops_verdicts_on_edge_values():
    for row in itertools.product(_EDGES, repeat=3):
        assert _positive(np.array(row)) == _ref_positive(np.array(row)), row


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(), st.floats(1e-13, 1e308)),
                min_size=1, max_size=60))
def test_the_positivity_test_keeps_the_comparison_loops_verdicts(values):
    x = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _positive(x) == _ref_positive(x)


class _Keeper:
    """A black-box payoff that keeps every input it is given and returns one cached array."""

    def __init__(self, payoff):
        self.payoff, self.saved, self.kept = payoff, payoff.copy(), []

    def __call__(self, *state):
        self.kept.extend((s, s.copy()) for s in state)
        return self.payoff


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("run", KINDS)
def test_a_payoff_that_keeps_its_inputs_sees_none_of_them_overwritten(run, scaled):
    keepers = [_Keeper(np.array([0.3, -0.2, 0.1])), _Keeper(np.array([0.4, -0.1]))]
    lands = [Scaled(Custom(k), 0.5) if scaled else Custom(k) for k in keepers]
    log = run.endswith("exp_family")
    if run.startswith("coupled"):
        kind, x0 = CoupledReplicator(*lands), CoupledState(_TYPED_START, SimplexPoint([0.6, 0.4]))
    else:
        kind = {"replicator": Replicator, "ecological": Ecological, "lotka_volterra": LotkaVolterra,
                "shifted_lotka_volterra": ShiftedLotkaVolterra,
                "exp_family": Replicator}[run](lands[0])
        x0 = OrthantPoint([0.5, 1.0, 1.5]) if kind.state_type is OrthantPoint else _TYPED_START
        keepers = keepers[:1]
    start = _state_vector(kind, x0, "start")[0]
    if run == "exp_family":
        call = lambda: exp_family_solver(lands[0], x0, 0.05, 30)  # noqa: E731
    elif run == "coupled_exp_family":
        call = lambda: coupled_exp_family_solver(*lands, x0, 0.05, 30)  # noqa: E731
    else:
        call = lambda: integrate(kind, x0, 0.05, 30)  # noqa: E731
    _assert_same_run(lambda: _ref_run(kind, x0, 0.05, 30, None, log), call)
    for keeper in keepers:
        assert keeper.kept and keeper.payoff.tobytes() == keeper.saved.tobytes()
        assert all(seen.tobytes() == saved.tobytes() for seen, saved in keeper.kept)
    assert _state_vector(kind, x0, "start")[0].tobytes() == start.tobytes()


@pytest.mark.kernel_pinned
def test_a_run_of_a_trillion_steps_that_blows_up_holds_only_its_rows():
    # the record grows in chunks: all steps + 1 rows up front asked numpy for 14.6 TiB
    tracemalloc.start()
    try:
        traj = integrate(LotkaVolterra(Linear(np.diag([1.0, 0.9]))), OrthantPoint([1.0, 1.0]),
                         0.1, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 13 and traj.truncated
    assert traj.failure == "positivity lost at step 13 (t = 1.3)"
    assert peak < 2**20


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("run", ["replicator", "coupled", "exp_family", "coupled_exp_family"])
def test_a_run_one_step_longer_than_the_first_record_chunk_equals_the_loop(run):
    # steps + 1 rows: the record grows once, and the run that completes returns all of it
    reference, call = _flow(5, run, 3, "linear", 1.0, 0.01, _RECORD_CHUNK, True)
    _assert_same_run(reference, call)
    assert len(call()) == _RECORD_CHUNK + 1


@pytest.mark.kernel_pinned
@pytest.mark.parametrize("log", [False, True])
def test_a_payoff_that_keeps_its_inputs_across_the_records_growth_sees_none_overwritten(log):
    keeper = _Keeper(np.array([0.3, -0.2, 0.1]))
    kind = Replicator(Custom(keeper))
    call = exp_family_solver if log else lambda f, *args: integrate(Replicator(f), *args)
    _assert_same_run(lambda: _ref_run(kind, _TYPED_START, 0.01, _RECORD_CHUNK, None, log),
                     lambda: call(kind.f, _TYPED_START, 0.01, _RECORD_CHUNK))
    assert len(keeper.kept) > 8 * _RECORD_CHUNK
    assert all(seen.tobytes() == saved.tobytes() for seen, saved in keeper.kept)


@pytest.mark.kernel_pinned
@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    m=st.integers(2, 8),
    which=st.sampled_from(["linear", "log_linear", "custom"]),
    scaled=st.booleans(),
    coupled=st.booleans(),
)
def test_a_payoff_writes_into_out_the_bits_it_returns_without_one(seed, n, m, which, scaled,
                                                                   coupled):
    rng = np.random.default_rng(seed)
    m = m if coupled else n
    f = _landscape(rng, n, m, which, 10.0 ** rng.uniform(-1, 1))
    if which == "custom":  # an evaluator that returns one array of its own
        f = Custom(_Keeper(rng.standard_normal(n)))
    f = Scaled(f, rng.uniform(0.5, 2.0)) if scaled else f
    state = [_payoff_states(rng, None, k, "interior") for k in ((n, m) if coupled else (n,))]
    pay = resolve_payoff(f, n, m if coupled else None)
    expected = pay(*state)
    assert pay(*state, out=None).tobytes() == pay(*state, None).tobytes() == expected.tobytes()
    for call in (lambda buf: pay(*state, out=buf), lambda buf: pay(*state, buf)):
        buf = np.full(n, -7.0)
        got = call(buf)
        if which == "custom" and not scaled:  # the evaluator's array; ``out`` is not touched
            assert got is f.evaluator.payoff and buf.tobytes() == np.full(n, -7.0).tobytes()
        else:
            assert got is buf
        assert got.tobytes() == expected.tobytes()


_FIELDS = [
    (replicator_field, Replicator, SimplexPoint(np.array([0.2, 0.3, 0.5]))),
    (ecological_field, Ecological, SimplexPoint(np.array([0.2, 0.3, 0.5]))),
    (lv_field, LotkaVolterra, OrthantPoint(np.array([0.2, 1.3, 0.5]))),
    (shifted_lv_field, ShiftedLotkaVolterra, OrthantPoint(np.array([0.2, 1.3, 0.5]))),
]


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2, 2), (4, 4)])
@pytest.mark.parametrize("log_linear", [False, True])
@pytest.mark.parametrize("scaled", [False, True])
def test_a_wrong_shaped_matrix_raises_the_same_dimension_error(shape, log_linear, scaled):
    f = (LogLinear(np.ones(shape), np.ones(shape[0])) if log_linear else Linear(np.ones(shape)))
    f = Scaled(f, 2.0) if scaled else f
    for public, kind_type, x in _FIELDS:
        _assert_same_bits(lambda: _ref_make_field(kind_type(f))(x.coords), lambda: public(x, f))
    x = _FIELDS[0][2]
    for kind, log in [(Replicator(f), False), (Replicator(f), True), (LotkaVolterra(f), False)]:
        start = x if kind.state_type is SimplexPoint else OrthantPoint(x.coords)
        reference = lambda: _ref_run(kind, start, 0.01, 5, None, log)  # noqa: E731
        if log:
            _assert_same_bits(reference, lambda: exp_family_solver(f, start, 0.01, 5))
        else:
            _assert_same_bits(reference, lambda: integrate(kind, start, 0.01, 5))
        assert isinstance(_outcome(reference), tuple)
    s = CoupledState(SimplexPoint(np.array([0.5, 0.5])), SimplexPoint(np.array([0.2, 0.3, 0.5])))
    good = Linear(np.ones((3, 2)))
    for pair in [(f, good), (Linear(np.ones((2, 3))), f)]:
        _assert_same_bits(lambda: _ref_make_field(CoupledReplicator(*pair), 2)(s.concatenated()),
                          lambda: np.concatenate(coupled_replicator_field(s, *pair)))
        _assert_same_bits(lambda: _ref_run(CoupledReplicator(*pair), s, 0.01, 5, None, True),
                          lambda: coupled_exp_family_solver(*pair, s, 0.01, 5))


@pytest.mark.parametrize("which", ["linear", "log_linear", "scaled", "custom"])
def test_the_public_fields_equal_the_fields_they_replaced(which):
    rng = np.random.default_rng(7)
    f = _landscape(rng, 3, 3, which, 1.0)
    for public, kind_type, x in _FIELDS:
        _assert_same_bits(lambda: _ref_make_field(kind_type(f))(x.coords),
                          lambda: np.asarray(public(x, f)))
    f, g = _landscape(rng, 2, 3, which, 1.0), _landscape(rng, 3, 2, which, 1.0)
    s = CoupledState(SimplexPoint(np.array([0.5, 0.5])), SimplexPoint(np.array([0.2, 0.3, 0.5])))
    _assert_same_bits(lambda: _ref_make_field(CoupledReplicator(f, g), 2)(s.concatenated()),
                      lambda: np.concatenate(coupled_replicator_field(s, f, g)))


def test_each_call_of_a_public_field_returns_a_new_array():
    f = Scaled(_ZEEMAN, 1.0)
    s = CoupledState(_TYPED_START, SimplexPoint([0.6, 0.4]))
    a = np.array([[1.0, -1.0], [-1.0, 1.0], [0.5, 0.0]])
    calls = [(lambda x, p=public: np.asarray(p(x, f)), x, type(x)(x.coords[::-1].copy()))
             for public, _, x in _FIELDS]
    calls.append((lambda z: np.concatenate(coupled_replicator_field(z, Linear(a), Linear(-a.T))),
                  s, CoupledState(s.pop1, SimplexPoint([0.3, 0.7]))))
    for field, x, other in calls:
        first = field(x)
        saved = first.copy()
        second = field(other)
        assert not np.shares_memory(first, second) and first.tobytes() == saved.tobytes()
        assert second.tobytes() != saved.tobytes()


def _payoff_states(rng, rows, n, where):
    """One state of ``n`` coordinates (``rows`` None) or ``rows`` of them; ``where`` puts a zero
    or a negative coordinate in each."""
    x = rng.uniform(0.05, 1.0, (rows or 1, n))
    x /= x.sum(axis=1, keepdims=True)
    if where != "interior":
        x[:, rng.integers(n)] = 0.0 if where == "zero" else -rng.uniform(0.01, 2.0)
    return x[0] if rows is None else x


def _payoff_outcome(evaluate, f, x, other):
    """A payoff, or the type and message of the package error or the warning it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return evaluate(f, x, *other)
        except (SimplexDynError, RuntimeWarning) as exc:
            return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    m=st.integers(2, 8),
    which=st.sampled_from(["linear", "log_linear", "scaled", "custom"]),
    coupled=st.booleans(),
    rows=st.one_of(st.none(), st.integers(1, 6)),
    other_rows=st.one_of(st.none(), st.integers(1, 6)),
    paired=st.booleans(),
    where=st.sampled_from(["interior", "zero", "negative"]),
    misfit=st.booleans(),
)
def test_the_evaluator_equals_its_reference_on_one_state_and_on_rows(
    seed, n, m, which, coupled, rows, other_rows, paired, where, misfit
):
    rng = np.random.default_rng(seed)
    m = m if coupled else n
    f = _landscape(rng, n + misfit, m, which, 10.0 ** rng.uniform(-1, 1))
    x = _payoff_states(rng, rows, n, where)
    other = (_payoff_states(rng, rows if paired else other_rows, m, where),) if coupled else ()
    got = _payoff_outcome(evaluate_landscape, f, x, other)
    if other and x.shape[:-1] != other[0].shape[:-1]:  # one state against rows, or two lengths
        assert got == (DimensionMismatchError, f"own states of shape {x.shape} do not pair with "
                                               f"other states of shape {other[0].shape}")
    else:
        assert _bits(got) == _bits(_payoff_outcome(_ref_evaluate_landscape, f, x, other))


class _Recorder:
    """A black-box payoff that keeps a copy of every argument and fails on request."""

    def __init__(self, payoff, fail_at=None, bad_shape_at=None):
        self.payoff, self.fail_at, self.bad_shape_at = payoff, fail_at, bad_shape_at
        self.calls = []

    def __call__(self, *state):
        self.calls.append(tuple(np.array(s) for s in state))
        if len(self.calls) == self.fail_at:
            raise ArithmeticError("evaluator failed")
        out = self.payoff(*state)
        return out[:-1] if len(self.calls) == self.bad_shape_at else out


@pytest.mark.parametrize("kind_name", ["replicator", "lotka_volterra", "coupled", "exp_family",
                                       "coupled_exp_family"])
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("fault", [{}, {"fail_at": 7}, {"bad_shape_at": 10}])
def test_a_custom_evaluator_sees_the_calls_it_saw_before(kind_name, scaled, fault):
    steps = 6
    runs = []
    for side in ("reference", "change"):
        rng = np.random.default_rng(11)
        recorders = [_Recorder(_Affine(rng.standard_normal((a, b)), rng.standard_normal(a)),
                               **fault) for a, b in ((3, 2), (2, 3))]
        lands = [Scaled(Custom(r), 1.5) if scaled else Custom(r) for r in recorders]
        coupled = kind_name.startswith("coupled")
        if not coupled:
            recorders[0].payoff = _Affine(rng.standard_normal((3, 3)), rng.standard_normal(3))
        p = SimplexPoint(np.array([0.2, 0.3, 0.5]))
        start = CoupledState(p, SimplexPoint(np.array([0.4, 0.6]))) if coupled else p
        kind = {"replicator": Replicator(lands[0]), "exp_family": Replicator(lands[0]),
                "lotka_volterra": LotkaVolterra(lands[0]),
                "coupled": CoupledReplicator(*lands),
                "coupled_exp_family": CoupledReplicator(*lands)}[kind_name]
        if kind.state_type is OrthantPoint:
            start = OrthantPoint(p.coords)
        log = kind_name.endswith("exp_family")
        if side == "reference":
            outcome = _outcome(lambda: _ref_run(kind, start, 0.05, steps, None, log))
        elif kind_name == "exp_family":
            outcome = _outcome(lambda: exp_family_solver(lands[0], start, 0.05, steps))
        elif kind_name == "coupled_exp_family":
            outcome = _outcome(lambda: coupled_exp_family_solver(*lands, start, 0.05, steps))
        else:
            outcome = _outcome(lambda: integrate(kind, start, 0.05, steps))
        if not isinstance(outcome, tuple):  # the kinds hold each side's own recorders
            outcome = [outcome.times, outcome.states, outcome.diagnostics, outcome.split,
                       outcome.truncated, outcome.failure]
        runs.append(([_bits(value) for value in outcome],
                     [[a.tobytes() for a in call] for r in recorders for call in r.calls]))
    assert runs[0] == runs[1]
    populations = 2 if kind_name.startswith("coupled") else 1
    if fault:
        assert runs[1][0][0] == ("type", EvaluationFailure)
    else:  # four field calls per step, then one diagnostics call per recorded row
        assert len(runs[1][1]) == populations * (4 * steps + steps + 1)

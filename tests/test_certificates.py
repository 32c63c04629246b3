"""The certificate kernels against the per-row loops they replaced.

The ESS samplers, the gradient check and ``orbit_gap`` work on whole batches.
The ``_ref_*`` functions below are verbatim copies of the loops they
replaced; every output must equal theirs to the bit, and every error must
carry the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdyn import SimplexPoint, gradient_consistency_check, orbit_gap
from simplexdyn.analysis import _orthant_ball_samples, _tangent_ball_samples
from simplexdyn.core import TangentVector
from simplexdyn.errors import EmptyTrajectoryError, RadiusTooLargeError, SimplexDynError
from simplexdyn.geometry import inner_product, shahshahani_gradient

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


def _ref_gradient_consistency_check(x, potential_grad, probes, seed):
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
        worst = max(worst, abs(lhs - rhs))
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
def test_gradient_check_equals_the_loop(seed, n, scale, probes):
    rng = np.random.default_rng(seed)
    x = SimplexPoint(_simplex(rng, n, 0.05))
    with np.errstate(all="ignore"):
        grad = rng.standard_normal(n) * scale
        _assert_same(
            lambda: _ref_gradient_consistency_check(x, grad, probes, seed),
            lambda: gradient_consistency_check(x, grad, probes, seed),
        )


def test_gradient_check_skips_nan_defects_and_refuses_a_nan_gradient():
    x = SimplexPoint(np.array([0.5, 0.5]))
    grad = np.array([1.7e308, -1.7e308])  # both sides overflow to inf for the larger probes
    with np.errstate(all="ignore"):
        w = np.random.default_rng(0).standard_normal((50, 2))
        w -= w.mean(axis=1, keepdims=True)
        defects = np.abs((x.coords * grad * w / x.coords).sum(axis=1) - w @ grad)
        assert np.isnan(defects).any() and not np.isnan(defects).all()
        expected = _ref_gradient_consistency_check(x, grad, 50, 0)
        assert np.isfinite(expected)
        _assert_same(lambda: expected, lambda: gradient_consistency_check(x, grad, 50, 0))
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
        lambda: orbit_gap(states, reference, stride),
    )


def test_orbit_gap_needs_two_reference_states():
    states = np.ones((3, 2))
    _assert_same(lambda: _ref_orbit_gap(states, states[:1]), lambda: orbit_gap(states, states[:1]))
    assert _outcome(lambda: orbit_gap(states, states[:1]))[0] is EmptyTrajectoryError


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

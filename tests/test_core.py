"""State types, landscapes, and elementary statistics.

Every numeric expectation here is hand-derivable: means/variances of
two- and three-entry payoff vectors, and the round trips between
frequencies and abundances.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdyn import (
    CoupledState,
    Custom,
    DimensionMismatchError,
    DimensionTooSmallError,
    EvaluationFailure,
    LandscapeValueError,
    Linear,
    LogLinear,
    LotkaVolterra,
    NonPositiveTauError,
    NotInteriorError,
    NotNormalizedError,
    NotTangentError,
    OrthantPoint,
    Scaled,
    SimplexDynError,
    SimplexPoint,
    TangentVector,
    barycenter,
    evaluate_landscape,
    evaluate_landscape_batch,
    evaluate_landscape_coupled,
    fitness_variance,
    integrate,
    lv_correspondence_residual,
    lyapunov_monitor,
    mean_fitness,
    normalize,
    normalize_lv_trajectory,
    section,
    validate_simplex,
)
from simplexdyn.core import SIMPLEX_TOL, _per_total

RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


# ---------------------------------------------------------------------------
# state types
# ---------------------------------------------------------------------------


def test_validate_simplex_accepts_exact_point():
    x = validate_simplex((0.5, 0.5))
    assert isinstance(x, SimplexPoint)
    np.testing.assert_array_equal(x.coords, [0.5, 0.5])
    assert x.dim == 2 and len(x) == 2


def test_validate_simplex_rejects_bad_sum():
    with pytest.raises(NotNormalizedError):
        validate_simplex((0.5, 0.6))


def test_validate_simplex_rejects_boundary():
    with pytest.raises(NotInteriorError):
        validate_simplex((1.0, 0.0))
    with pytest.raises(NotInteriorError):
        validate_simplex((1.5, -0.5))


def test_validate_simplex_rejects_nan_sum():
    with pytest.raises((NotInteriorError, NotNormalizedError)):
        validate_simplex((np.nan, 0.5))


def test_coordinates_that_sum_past_float64_are_refused_without_a_warning():
    # numpy's "overflow encountered in reduce" came before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalizedError) as info:
            SimplexPoint([1e308, 1e308])
    assert str(info.value) == "coordinates sum to inf, expected 1 within 1e-09"


def test_simplex_point_rejects_scalar_and_short():
    with pytest.raises(DimensionTooSmallError):
        SimplexPoint(np.array(1.0))
    with pytest.raises(DimensionTooSmallError):
        SimplexPoint(np.array([1.0]))


def test_simplex_point_tolerates_tiny_sum_error():
    # 1e-10 below SIMPLEX_TOL = 1e-9
    x = SimplexPoint(np.array([0.5 + 5e-11, 0.5 + 5e-11]))
    assert abs(x.coords.sum() - 1.0) > 0


def test_simplex_coords_are_read_only():
    x = SimplexPoint(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        x.coords[0] = 0.9


def test_simplex_point_copies_input():
    raw = np.array([0.5, 0.5])
    x = SimplexPoint(raw)
    raw[0] = 0.9
    assert x.coords[0] == 0.5


def test_orthant_point_total():
    y = OrthantPoint(np.array([2.0, 1.0, 1.0]))
    assert y.total == 4.0
    with pytest.raises(NotInteriorError):
        OrthantPoint(np.array([1.0, 0.0]))
    with pytest.raises(NotInteriorError):
        OrthantPoint(np.array([1.0, np.inf]))


def test_tangent_vector_zero_sum():
    v = TangentVector(np.array([0.25, -0.25]))
    assert v.dim == 2
    with pytest.raises(NotTangentError):
        TangentVector(np.array([0.25, 0.25]))


def test_coupled_state_dims_and_concatenation():
    s = CoupledState(
        SimplexPoint(np.array([0.6, 0.4])),
        SimplexPoint(np.array([0.2, 0.3, 0.5])),
    )
    assert s.dims == (2, 3)
    np.testing.assert_array_equal(s.concatenated(), [0.6, 0.4, 0.2, 0.3, 0.5])


def test_barycenter():
    b = barycenter(4)
    np.testing.assert_allclose(b.coords, 0.25)
    with pytest.raises(DimensionTooSmallError):
        barycenter(1)


# ---------------------------------------------------------------------------
# frequency <-> abundance round trips
# ---------------------------------------------------------------------------


def test_normalize_examples():
    np.testing.assert_allclose(normalize(OrthantPoint(np.array([1.0, 1.0]))).coords, [0.5, 0.5])
    np.testing.assert_allclose(
        normalize(OrthantPoint(np.array([2.0, 1.0, 1.0]))).coords, [0.5, 0.25, 0.25]
    )
    # a finite abundance whose total overflows
    np.testing.assert_array_equal(normalize(OrthantPoint([1e308, 1e308])).coords, [0.5, 0.5])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 20), n=st.integers(3, 12),
       exponent=st.integers(-300, 300))
def test_rows_per_total_are_the_plain_quotient_and_an_overflowing_total_keeps_its_frequencies(
        seed, rows, n, exponent):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 2.0, (rows, n)) * 10.0**exponent
    # a finite total: the bits of the plain quotient, for rows and for one point
    np.testing.assert_array_equal(_per_total(x), x / x.sum(axis=1)[:, None])
    np.testing.assert_array_equal(_per_total(x[0]), x[0] / float(x[0].sum()))
    # doubled until the total overflows; coordinates in [1, 2) with n >= 3 stay finite
    big = x[0].copy()
    with np.errstate(over="ignore"):
        while np.isfinite(big.sum()):
            big *= 2.0
    assert np.all(np.isfinite(big))
    y = _per_total(big)
    assert abs(y.sum() - 1.0) <= SIMPLEX_TOL
    assert np.max(np.abs(y - _per_total(x[0]))) <= 4 * n * np.finfo(float).eps


def test_an_abundance_run_whose_total_overflows_reads_its_frequencies():
    # coordinates of 2.2e307 are finite; their total, 1.76e308 at the start, is inf from row 3 on;
    # the payoff is 1 everywhere and every row lies on the target's ray
    start = OrthantPoint(np.full(8, 2.2e307))
    kind = LotkaVolterra(LogLinear(np.zeros((8, 8)), np.ones(8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(kind, start, 0.01, 5, target=start)
        frequencies = normalize_lv_trajectory(traj).states
        residual = lv_correspondence_residual(traj)
        report = lyapunov_monitor(traj, start)
    assert not traj.truncated and np.isinf(traj.diagnostics.state_total[-1])
    np.testing.assert_array_equal(traj.diagnostics.mean_fitness, np.ones(6))
    np.testing.assert_array_equal(traj.diagnostics.divergence_to_target, np.zeros(6))
    np.testing.assert_array_equal(frequencies, np.full((6, 8), 0.125))
    assert residual == 0.0
    assert report.final_value == 0.0 and report.parallel_before_convergence == 0


def test_section_examples():
    np.testing.assert_allclose(
        section(SimplexPoint(np.array([0.5, 0.5])), 2.0).coords, [1.0, 1.0]
    )
    np.testing.assert_allclose(
        section(SimplexPoint(np.array([0.5, 0.25, 0.25])), 4.0).coords, [2.0, 1.0, 1.0]
    )
    np.testing.assert_allclose(
        section(SimplexPoint(np.array([0.3, 0.7])), 1.0).coords, [0.3, 0.7]
    )


def test_section_rejects_nonpositive_tau():
    x = SimplexPoint(np.array([0.5, 0.5]))
    with pytest.raises(NonPositiveTauError):
        section(x, 0.0)
    with pytest.raises(NonPositiveTauError):
        section(x, -1.0)


def test_normalize_after_section_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        raw = rng.uniform(0.05, 1.0, size=n)
        x = SimplexPoint(raw / raw.sum())
        tau = float(rng.uniform(0.01, 100.0))
        back = normalize(section(x, tau))
        np.testing.assert_allclose(back.coords, x.coords, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# landscapes
# ---------------------------------------------------------------------------


def test_linear_landscape_evaluates_matrix_product():
    f = Linear(np.array([[0.0, 1.0], [2.0, 0.0]]))
    np.testing.assert_allclose(evaluate_landscape(f, np.array([0.25, 0.75])), [0.75, 0.5])


def test_linear_landscape_dimension_check():
    f = Linear(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        evaluate_landscape(f, np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError):
        Linear(np.ones(3))  # not 2-d


def test_log_linear_landscape():
    f = LogLinear(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 3.0]))
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(
        evaluate_landscape(f, x), [np.log(0.5) + 2.0, np.log(0.5) + 3.0]
    )
    with pytest.raises(DimensionMismatchError):
        LogLinear(np.eye(2), np.array([1.0, 2.0, 3.0]))


def test_scaled_landscape_is_aggregate_neutral():
    base = Linear(np.array([[-1.0, 2.0], [0.0, 1.0]]))
    g = Scaled(base, 3.0)
    x = np.array([0.3, 0.7])
    out = evaluate_landscape(g, x)
    base_out = evaluate_landscape(base, x)
    fbar = x @ base_out
    np.testing.assert_allclose(out, 3.0 * (base_out - fbar))
    assert abs(x @ out) < 1e-15  # x . g(x) = 0
    with pytest.raises(ValueError):
        Scaled(base, 0.0)


@pytest.mark.parametrize("factor", [True, np.True_, np.inf, np.nan])
def test_scaled_refuses_a_bool_or_non_finite_factor(factor):
    with pytest.raises(ValueError, match=f"scale factor must be > 0 and finite, got {factor}"):
        Scaled(Linear(np.eye(2)), factor)


def test_scaled_refuses_a_string_factor():
    with pytest.raises(ValueError, match="scale factor must be > 0 and finite, got 2"):
        Scaled(Linear(np.eye(2)), "2")


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_linear_refuses_a_non_finite_entry(entry):
    with pytest.raises(LandscapeValueError, match=f"Linear matrix entry {entry} is not finite"):
        Linear([[1.0, entry], [0.0, 1.0]])


def test_log_linear_refuses_a_nan_offset():
    with pytest.raises(LandscapeValueError, match="LogLinear offset entry nan is not finite"):
        LogLinear(np.eye(2), [np.nan, 1.0])


def test_linear_refuses_a_bool_matrix():
    with pytest.raises(LandscapeValueError, match="Linear matrix entry True is not a real number"):
        Linear([[True, False], [False, True]])


HALF = SimplexPoint(np.array([0.5, 0.5]))


# Each value numpy would cast: the owner refuses it with its own error type, naming the
# argument and the entry as the caller gave it.
@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Linear([[True, 0.5], [0.0, 1.0]]), LandscapeValueError,
         "Linear matrix entry True is not a real number"),
        (lambda: Linear([[1, True], [0, 1]]), LandscapeValueError,
         "Linear matrix entry True is not a real number"),
        (lambda: LogLinear(np.eye(2), [True, 0.5]), LandscapeValueError,
         "LogLinear offset entry True is not a real number"),
        (lambda: Linear([[0.5, "1"], [0.0, 1.0]]), LandscapeValueError,
         "Linear matrix entry '1' is not a real number"),
        (lambda: OrthantPoint([True, True]), NotInteriorError,
         "OrthantPoint coords entry True is not a real number"),
        (lambda: OrthantPoint(np.array([True, True])), NotInteriorError,
         "OrthantPoint coords entry True is not a real number"),
        (lambda: SimplexPoint(["0.5", "0.5"]), NotInteriorError,
         "SimplexPoint coords entry '0.5' is not a real number"),
        (lambda: SimplexPoint([0.5 + 0j, 0.5]), NotInteriorError,
         "SimplexPoint coords entry (0.5+0j) is not a real number"),
        (lambda: TangentVector(["1", "-1"]), NotTangentError,
         "TangentVector components entry '1' is not a real number"),
        (lambda: validate_simplex(["0.5", "0.5"]), NotInteriorError,
         "SimplexPoint coords entry '0.5' is not a real number"),
        (lambda: normalize([1.0, "1"]), NotInteriorError,
         "OrthantPoint coords entry '1' is not a real number"),
        (lambda: CoupledState(["0.5", "0.5"], HALF), NotInteriorError,
         "SimplexPoint coords entry '0.5' is not a real number"),
        (lambda: section(HALF, True), NonPositiveTauError, "tau must be > 0, got True"),
        (lambda: section(HALF, "2"), NonPositiveTauError, "tau must be > 0, got 2"),
    ],
    ids=["linear-bool-first", "linear-bool-beside-ints", "loglinear-bool-offset",
         "linear-string", "orthant-bools", "orthant-bool-array", "simplex-strings",
         "simplex-complex", "tangent-strings", "validate-strings", "normalize-string",
         "coupled-strings", "section-bool", "section-string"],
)
def test_a_value_numpy_would_cast_is_refused_naming_it(build, error, message):
    with pytest.raises(SimplexDynError) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_valid_entries_read_as_before():
    assert OrthantPoint([1, np.float32(0.5), np.int64(2)]).coords.tolist() == [1.0, 0.5, 2.0]
    assert Linear([[1, 0.5], [0, np.float64(1.0)]]).matrix.tolist() == [[1.0, 0.5], [0.0, 1.0]]
    assert section(HALF, 2).coords.tolist() == [1.0, 1.0]


def test_custom_landscape_wraps_failures():
    def boom(x):
        raise RuntimeError("nope")

    with pytest.raises(EvaluationFailure):
        evaluate_landscape(Custom(boom), np.array([0.5, 0.5]))
    with pytest.raises(EvaluationFailure):
        evaluate_landscape(Custom(lambda x: np.zeros(3)), np.array([0.5, 0.5]))


@pytest.mark.parametrize("f", [RPS, "linear", None], ids=["array", "str", "none"])
def test_evaluate_landscape_refuses_what_is_not_a_landscape(f):
    with pytest.raises(TypeError) as info:
        evaluate_landscape(f, np.array([0.2, 0.3, 0.5]))
    assert str(info.value) == f"not a landscape: {f!r}"


def test_batch_evaluation_matches_rowwise():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    states = rng.uniform(0.1, 1.0, size=(20, 3))
    states /= states.sum(axis=1, keepdims=True)
    for f in (Linear(A), LogLinear(A, rng.standard_normal(3)), Scaled(Linear(A), 2.0)):
        batch = evaluate_landscape_batch(f, states)
        rows = np.stack([evaluate_landscape(f, row) for row in states])
        np.testing.assert_allclose(batch, rows, atol=1e-14)


def test_coupled_landscape_uses_other_population():
    # bimatrix: payoff for own of dimension 2 against other of dimension 3
    B = np.arange(6, dtype=float).reshape(2, 3)
    own = np.array([0.5, 0.5])
    other = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(evaluate_landscape_coupled(Linear(B), own, other), B @ other)
    with pytest.raises(DimensionMismatchError):
        evaluate_landscape_coupled(Linear(B), other, own)


def test_one_evaluator_on_coupled_rows_matches_single_states():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((2, 3))
    own = rng.uniform(0.1, 1.0, size=(15, 2))
    other = rng.uniform(0.1, 1.0, size=(15, 3))
    landscapes = (
        Linear(B),
        LogLinear(B, rng.standard_normal(2)),
        Scaled(Linear(B), 3.0),
        Custom(lambda p, q: p * q.sum()),
    )
    for f in landscapes:
        rows = evaluate_landscape(f, own, other)
        single = np.stack([evaluate_landscape_coupled(f, p, q) for p, q in zip(own, other)])
        assert rows.shape == (15, 2)
        np.testing.assert_allclose(rows, single, rtol=0.0, atol=1e-14)
    # the matrix products keep the bits of A @ x on one state and X @ A.T on rows
    np.testing.assert_array_equal(evaluate_landscape(Linear(B), own, other), other @ B.T)
    np.testing.assert_array_equal(evaluate_landscape(Linear(B), own[0], other[0]), B @ other[0])
    with pytest.raises(DimensionMismatchError):
        evaluate_landscape(Linear(B), other, own)


@pytest.mark.parametrize(
    "f",
    [
        Linear(np.eye(2)),
        LogLinear(np.eye(2), np.zeros(2)),
        Scaled(Linear(np.eye(2)), 2.0),
        Custom(lambda p, q: p * q.sum()),
    ],
    ids=["linear", "log_linear", "scaled", "custom"],
)
@pytest.mark.parametrize(
    "own_shape, other_shape",
    [((3, 2), (2,)), ((2,), (3, 2)), ((3, 2), (4, 2)), ((4, 2), (3, 2))],
)
def test_own_and_other_states_of_different_shapes_are_refused(f, own_shape, other_shape):
    own = np.full(own_shape, 0.5)
    other = np.full(other_shape, 0.5)
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{own_shape}") + ".*"
                       + re.escape(f"{other_shape}")):
        evaluate_landscape(f, own, other)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_mean_fitness_examples():
    b = barycenter(3)
    assert mean_fitness(b, Linear(RPS)) == pytest.approx(0.0, abs=1e-15)
    x = SimplexPoint(np.array([0.5, 0.5]))
    assert mean_fitness(x, Linear(np.diag([1.0, 2.0]))) == pytest.approx(0.75)
    # constant landscape via Custom
    assert mean_fitness(x, Custom(lambda v: np.full(2, 4.25))) == pytest.approx(4.25)


def test_fitness_variance_examples():
    x = SimplexPoint(np.array([0.5, 0.5]))
    assert fitness_variance(x, Linear(np.diag([1.0, 2.0]))) == pytest.approx(0.0625)
    assert fitness_variance(x, Custom(lambda v: np.full(2, 9.0))) == 0.0
    # at the barycenter of the cyclic game f = Ax = 0, so the variance vanishes
    assert fitness_variance(barycenter(3), Linear(RPS)) == pytest.approx(0.0, abs=1e-15)


def test_fitness_variance_nonnegative_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        raw = rng.uniform(0.05, 1.0, size=n)
        x = SimplexPoint(raw / raw.sum())
        f = Linear(rng.standard_normal((n, n)))
        assert fitness_variance(x, f) >= 0.0


def test_mean_fitness_affine_shift():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((3, 3))
    raw = rng.uniform(0.1, 1.0, size=3)
    x = SimplexPoint(raw / raw.sum())
    c = 1.75
    base = mean_fitness(x, Linear(A))
    shifted = mean_fitness(x, Custom(lambda v: A @ v + c))
    assert shifted - base == pytest.approx(c, abs=1e-12)
    # variance is unchanged by the shift
    assert fitness_variance(x, Custom(lambda v: A @ v + c)) == pytest.approx(
        fitness_variance(x, Linear(A)), abs=1e-12
    )

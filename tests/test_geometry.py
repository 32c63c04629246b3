"""Metric evaluation, metric gradients, exponential map, and divergence
localization.

The closed forms used as oracles: the reciprocal-coordinate metric diag(1/x),
its orthant variants |x|/x and 1/x, and the 4-point central-difference model
for the mixed partial of a divergence (truncation error O(h^2)).
"""

import warnings

import numpy as np
import pytest

from simplexdyn import (
    DimensionMismatchError,
    MetricTensor,
    NotDiagonalError,
    OrthantMetricKind,
    OrthantPoint,
    SimplexPoint,
    StepTooLargeError,
    TangentVector,
    barycenter,
    exp_map,
    fisher_metric_at,
    gradient_consistency_check,
    inner_product,
    kl_formula,
    localize_divergence,
    metric_at,
    orthant_metric_at,
    shahshahani_gradient,
)

RNG = np.random.default_rng(101)


def _interior(n, rng=RNG, lo=0.05):
    raw = rng.uniform(lo, 1.0, size=n)
    return SimplexPoint(raw / raw.sum())


def _tangent(n, rng=RNG):
    z = rng.standard_normal(n)
    return TangentVector(z - z.mean())


# ---------------------------------------------------------------------------
# metric tensors
# ---------------------------------------------------------------------------


def test_metric_at_closed_form():
    np.testing.assert_allclose(metric_at(barycenter(3)).diag, [3.0, 3.0, 3.0])
    assert metric_at(barycenter(3)).dim == 3
    np.testing.assert_allclose(metric_at(SimplexPoint(np.array([0.5, 0.5]))).diag, [2.0, 2.0])
    np.testing.assert_allclose(
        metric_at(SimplexPoint(np.array([0.5, 0.25, 0.25]))).diag, [2.0, 4.0, 4.0]
    )


def test_fisher_metric_matches_reciprocal_form():
    np.testing.assert_allclose(fisher_metric_at(barycenter(3)).diag, [3.0, 3.0, 3.0])
    for _ in range(200):
        n = int(RNG.integers(2, 6))
        x = _interior(n)
        np.testing.assert_allclose(
            fisher_metric_at(x).diag, metric_at(x).diag, rtol=0, atol=1e-12
        )


def test_orthant_metrics():
    y = OrthantPoint(np.array([1.0, 1.0]))
    np.testing.assert_allclose(
        orthant_metric_at(y, OrthantMetricKind.SHAHSHAHANI).diag, [2.0, 2.0]
    )
    np.testing.assert_allclose(orthant_metric_at(y, OrthantMetricKind.AKIN).diag, [1.0, 1.0])
    z = OrthantPoint(np.array([2.0, 1.0, 1.0]))
    np.testing.assert_allclose(
        orthant_metric_at(z, OrthantMetricKind.SHAHSHAHANI).diag, [2.0, 4.0, 4.0]
    )


@pytest.mark.parametrize("build, message", [
    (lambda: metric_at(SimplexPoint([5e-324, 1.0])), "1 / x_i overflows float64 at x_0 = 5e-324"),
    (lambda: fisher_metric_at(SimplexPoint([1.0, 5e-324])),
     "E[s_i s_i] overflows float64 at x_1 = 5e-324"),
    (lambda: orthant_metric_at(OrthantPoint([5e-324, 1.0]), OrthantMetricKind.AKIN),
     "1 / x_i overflows float64 at x_0 = 5e-324"),
    (lambda: orthant_metric_at(OrthantPoint([1e300, 1e-10]), OrthantMetricKind.SHAHSHAHANI),
     "|x| / x_i overflows float64 at x_1 = 1e-10"),
    (lambda: orthant_metric_at(OrthantPoint([1e308, 1e308]), OrthantMetricKind.SHAHSHAHANI),
     "|x| / x_i overflows float64 at x_0 = 1e+308"),  # the total 2e308 overflows
], ids=["metric", "fisher", "akin", "shahshahani", "shahshahani-total"])
def test_a_metric_diagonal_float64_cannot_hold_is_an_overflow_error_with_no_warning(build,
                                                                                    message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError) as info:
            build()
    assert str(info.value) == f"metric diagonal {message}"


@pytest.mark.parametrize("diag", [[1.0, 0.0], [1.0, -2.0], [1.0, np.inf], [np.nan, 1.0]],
                         ids=["zero", "negative", "inf", "nan"])
def test_a_metric_diagonal_that_is_not_positive_and_finite_is_refused(diag):
    with pytest.raises(ValueError) as info:
        MetricTensor(np.array(diag))
    assert str(info.value) == f"metric diagonal must be positive and finite, got {np.array(diag)}"


def test_an_orthant_metric_kind_given_by_its_value_is_refused():
    with pytest.raises(TypeError, match="^unknown orthant metric kind: 'akin'$"):
        orthant_metric_at(OrthantPoint(np.array([1.0, 2.0])), "akin")


def test_orthant_metrics_agree_on_unit_total():
    # both variants restrict to diag(1/x) when |x| = 1
    for _ in range(20):
        x = _interior(4)
        y = OrthantPoint(x.coords.copy())
        np.testing.assert_allclose(
            orthant_metric_at(y, OrthantMetricKind.SHAHSHAHANI).diag, metric_at(x).diag
        )
        np.testing.assert_allclose(
            orthant_metric_at(y, OrthantMetricKind.AKIN).diag, metric_at(x).diag
        )


# ---------------------------------------------------------------------------
# inner product and metric gradient
# ---------------------------------------------------------------------------


def test_inner_product_example():
    v = TangentVector(np.array([1.0, -1.0, 0.0]))
    assert inner_product(barycenter(3), v, v) == pytest.approx(6.0)


def test_inner_product_symmetric_and_positive():
    for _ in range(50):
        n = int(RNG.integers(2, 6))
        x = _interior(n)
        v, w = _tangent(n), _tangent(n)
        assert inner_product(x, v, w) == pytest.approx(inner_product(x, w, v), abs=1e-14)
        assert inner_product(x, v, v) > 0.0


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(barycenter(3), _tangent(3), _tangent(4))


def test_shahshahani_gradient_examples():
    x = SimplexPoint(np.array([0.5, 0.25, 0.25]))
    f = np.array([0.0, 0.25, -0.25])  # cyclic-game payoff at x; mean is 0
    np.testing.assert_allclose(
        shahshahani_gradient(x, f).components, [0.0, 0.0625, -0.0625], atol=1e-15
    )
    # constant payoff has zero gradient
    np.testing.assert_allclose(
        shahshahani_gradient(x, np.full(3, 2.5)).components, 0.0, atol=1e-15
    )
    # uniform weights divide centered payoff by n
    b = barycenter(4)
    g = RNG.standard_normal(4)
    np.testing.assert_allclose(
        shahshahani_gradient(b, g).components, (g - g.mean()) / 4.0, atol=1e-15
    )


def test_gradient_defining_property():
    """<grad V, w>_x = (euclidean grad) . w for every tangent w."""
    for _ in range(100):
        n = int(RNG.integers(2, 6))
        x = _interior(n)
        grad = RNG.standard_normal(n)
        s = shahshahani_gradient(x, grad)
        w = _tangent(n)
        assert inner_product(x, s, w) == pytest.approx(float(grad @ w.components), abs=1e-12)


# ---------------------------------------------------------------------------
# exponential map
# ---------------------------------------------------------------------------


def test_exp_map_identity_at_zero():
    x = _interior(3)
    np.testing.assert_allclose(exp_map(x, np.zeros(3)).coords, x.coords, atol=1e-15)


def test_exp_map_barycenter_example():
    out = exp_map(barycenter(3), np.array([np.log(2.0), 0.0, 0.0]))
    np.testing.assert_allclose(out.coords, [0.5, 0.25, 0.25], atol=1e-15)


def test_exp_map_shift_invariance():
    x = _interior(4)
    v = RNG.standard_normal(4)
    a = exp_map(x, v)
    b = exp_map(x, v + 17.5)
    np.testing.assert_allclose(a.coords, b.coords, atol=1e-15)


def test_exp_map_large_velocities_stay_finite():
    # naive exp(600) would overflow; the max-shift guard keeps this exact
    x = barycenter(3)
    out = exp_map(x, np.array([600.0, 500.0, 400.0]))
    assert np.all(np.isfinite(out.coords))
    assert out.coords[0] == pytest.approx(1.0, abs=1e-9)


def test_exp_map_underflow_to_boundary_is_an_error():
    # a spread beyond float64 range maps to the boundary, which is not
    # representable as an interior point
    with pytest.raises(OverflowError):
        exp_map(barycenter(3), np.array([900.0, 0.0, -900.0]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda x: exp_map(x, [np.nan, 0.0]), "direction entry nan is not finite"),
        (lambda x: exp_map(x, [-np.inf, 0.0]), "direction entry -inf is not finite"),
        (lambda x: exp_map(x, [np.inf, 0.0]), "direction entry inf is not finite"),
        (lambda x: shahshahani_gradient(x, [np.inf, 0.0]), "gradient entry inf is not finite"),
    ],
    ids=["direction-nan", "direction-minus-inf", "direction-inf", "gradient-inf"],
)
def test_a_non_finite_direction_or_gradient_is_refused_naming_it(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as info:
            build(barycenter(2))
    assert type(info.value) is ValueError and str(info.value) == message


def test_exp_map_refuses_a_direction_of_another_shape():
    with pytest.raises(DimensionMismatchError) as info:
        exp_map(barycenter(3), [0.0, 1.0])
    assert str(info.value) == "direction shape (2,) does not match point dimension 3"


def test_exp_map_spread_beyond_float64_is_an_overflow_error_with_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match="exponential map underflowed"):
            exp_map(barycenter(2), [1e308, -1e308])


# ---------------------------------------------------------------------------
# divergence localization
# ---------------------------------------------------------------------------


def _sqdist(a, b):
    d = np.asarray(a) - np.asarray(b)
    return 0.5 * float(d @ d)


def test_localize_kl_recovers_metric():
    x = SimplexPoint(np.array([0.5, 0.5]))
    report = localize_divergence(kl_formula, x, 1e-3)
    np.testing.assert_allclose(report.metric.diag, [2.0, 2.0], atol=1e-4)
    assert report.max_offdiag < 1e-3

    report3 = localize_divergence(kl_formula, barycenter(3), 1e-3)
    np.testing.assert_allclose(report3.metric.diag, [3.0, 3.0, 3.0], atol=1e-4)


def test_localize_kl_sign_is_negative():
    # raw mixed partial d^2 KL(x||y) / dx_i dy_j at x=y is -delta_ij/x_i;
    # the operation reports the magnitude and the sign separately
    report = localize_divergence(kl_formula, barycenter(3), 1e-3)
    assert report.sign == -1


def test_localize_squared_distance():
    report = localize_divergence(_sqdist, _interior(3), 1e-3)
    np.testing.assert_allclose(report.metric.diag, 1.0, atol=1e-6)
    assert report.sign == -1


def test_localize_error_is_h_squared():
    x = barycenter(3)
    e1 = np.max(np.abs(localize_divergence(kl_formula, x, 1e-3).metric.diag - 3.0))
    e2 = np.max(np.abs(localize_divergence(kl_formula, x, 5e-4).metric.diag - 3.0))
    assert 3.5 <= e1 / e2 <= 4.5


def test_localize_rejects_large_step():
    x = SimplexPoint(np.array([0.995, 0.005]))
    with pytest.raises(StepTooLargeError):
        localize_divergence(kl_formula, x, 0.01)


def test_localize_rejects_non_diagonal():
    M = np.array([[1.0, 0.5], [0.5, 1.0]])

    def coupled_quadratic(a, b):
        d = np.asarray(a) - np.asarray(b)
        return 0.5 * float(d @ M @ d)

    with pytest.raises(NotDiagonalError):
        localize_divergence(coupled_quadratic, SimplexPoint(np.array([0.5, 0.5])), 1e-3)


def test_pure_second_derivatives_also_give_the_metric():
    """Differentiating twice in a single argument (either one) at y = x
    yields +diag(1/x), matching the mixed-partial magnitude."""
    x = _interior(3, lo=0.2)
    h = 1e-4
    n = x.dim
    for which in ("first", "second"):
        hess = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                def at(si, sj):
                    pert = x.coords.copy()
                    pert[i] += si * h
                    pert[j] += sj * h
                    if which == "first":
                        return kl_formula(pert, x.coords)
                    return kl_formula(x.coords, pert)

                hess[i, j] = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
        np.testing.assert_allclose(np.diag(hess), 1.0 / x.coords, rtol=1e-4)
        off = hess - np.diag(np.diag(hess))
        assert np.max(np.abs(off)) < 1e-3


def test_localize_refuses_non_finite_derivatives_naming_the_step():
    # 4 h^2 underflows to 0, so the stencil divides by zero: neither a sign nor a diagonal
    x = SimplexPoint(np.array([1e-300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotDiagonalError) as info:
            localize_divergence(kl_formula, x, 1e-301)
    assert str(info.value) == "localized second derivatives are not finite at step h = 1e-301"


# Each value numpy would cast is refused as a ValueError naming the argument and the entry.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda x: shahshahani_gradient(x, [True, False]), "gradient entry True is not a real number"),
        (lambda x: gradient_consistency_check(x, [1.0, "0"], 5, 0),
         "gradient entry '0' is not a real number"),
        (lambda x: exp_map(x, ["1", "0"]), "direction entry '1' is not a real number"),
        (lambda x: MetricTensor([True, True]), "metric diagonal entry True is not a real number"),
        (lambda x: localize_divergence(kl_formula, x, True), "step h must be > 0, got True"),
        (lambda x: localize_divergence(kl_formula, x, "0.001"), "step h must be > 0, got 0.001"),
    ],
    ids=["gradient-bools", "gradient-check-string", "direction-strings", "metric-bools",
         "localize-bool-step", "localize-string-step"],
)
def test_a_value_numpy_would_cast_is_refused_naming_it(build, message):
    with pytest.raises(ValueError) as info:
        build(barycenter(2))
    assert type(info.value) is ValueError and str(info.value) == message

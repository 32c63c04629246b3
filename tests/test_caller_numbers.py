"""Caller numbers meet one rule, stated in ``core``, wherever they enter.

A number float64 cannot hold, an infinite step or level, and a ragged array
are each refused by the owner of the argument, with its own error type and a
message naming the argument; the CLI reads through the same rules and adds
only the field name.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdyn import (
    CoupledState,
    DimensionTooSmallError,
    LandscapeValueError,
    Linear,
    LogLinear,
    MetricTensor,
    NonPositiveTauError,
    NotInteriorError,
    NotTangentError,
    OrthantPoint,
    Scaled,
    SimplexPoint,
    StepSizeError,
    TangentVector,
    barycenter,
    coupled_ess_check,
    coupled_exp_family_solver,
    denormalized_ess_check,
    ess_check,
    exp_family_solver,
    exp_map,
    gradient_consistency_check,
    integrate,
    kl_formula,
    localize_divergence,
    section,
    shahshahani_gradient,
)
from simplexdyn import analysis, cli, dynamics
from simplexdyn.dynamics import Replicator
from simplexdyn.errors import SimplexDynError

BIG = 10**400  # an int float64 cannot hold
HALF = SimplexPoint([0.5, 0.5])
EYE = Linear(np.eye(2))


@pytest.mark.parametrize(
    "build, error, argument",
    [
        (lambda: Scaled(EYE, BIG), ValueError, "scale factor"),
        (lambda: integrate(Replicator(EYE), HALF, BIG, 1), StepSizeError, "dt"),
        (lambda: exp_family_solver(EYE, HALF, BIG, 1), StepSizeError, "dt"),
        (lambda: coupled_exp_family_solver(EYE, EYE, CoupledState(HALF, HALF), BIG, 1),
         StepSizeError, "dt"),
        # a finite step whose time grid leaves float range
        (lambda: integrate(Replicator(EYE), HALF, 1e308, 3), StepSizeError, "dt * steps"),
        (lambda: exp_family_solver(EYE, HALF, 1e308, 3), StepSizeError, "dt * steps"),
        (lambda: coupled_exp_family_solver(EYE, EYE, CoupledState(HALF, HALF), 1e308, 3),
         StepSizeError, "dt * steps"),
        (lambda: integrate(Replicator(EYE), HALF, 0.01, BIG), StepSizeError, "dt * steps"),
        (lambda: ess_check(HALF, EYE, BIG, 10, 0), ValueError, "radius"),
        (lambda: coupled_ess_check(HALF, HALF, EYE, EYE, BIG, 10, 0), ValueError, "radius"),
        (lambda: denormalized_ess_check(OrthantPoint([1.0, 1.0]), EYE, BIG, 10, 0), ValueError,
         "radius"),
        (lambda: section(HALF, BIG), NonPositiveTauError, "tau"),
        (lambda: SimplexPoint([BIG, 0.5]), NotInteriorError, "SimplexPoint coords"),
        (lambda: OrthantPoint([1.0, -BIG]), NotInteriorError, "OrthantPoint coords"),
        (lambda: TangentVector([BIG, -BIG]), NotTangentError, "TangentVector components"),
        (lambda: Linear([[BIG, 0], [0, 1]]), LandscapeValueError, "Linear matrix"),
        (lambda: LogLinear(np.eye(2), [0, BIG]), LandscapeValueError, "LogLinear offset"),
        (lambda: MetricTensor([BIG, 1]), ValueError, "metric diagonal"),
        (lambda: shahshahani_gradient(HALF, [BIG, 0]), ValueError, "gradient"),
        (lambda: gradient_consistency_check(HALF, [BIG, 0], 10, 0), ValueError, "gradient"),
        (lambda: exp_map(HALF, [BIG, 0]), ValueError, "direction"),
    ],
    ids=["scaled", "integrate", "exp-family", "coupled-exp-family", "integrate-grid",
         "exp-family-grid", "coupled-exp-family-grid", "integrate-steps", "ess", "coupled-ess",
         "denorm-ess", "section", "simplex", "orthant", "tangent", "linear", "log-linear",
         "metric", "shahshahani", "gradient-check", "exp-map"],
)
def test_a_number_beyond_float_range_is_refused_by_its_owner(build, error, argument):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error and str(info.value).startswith(argument)


def test_an_infinite_level_or_stencil_step_is_refused_naming_it():
    with pytest.raises(NonPositiveTauError, match=r"^tau must be > 0, got inf$"):
        section(HALF, np.inf)
    with pytest.raises(ValueError, match=r"^step h must be > 0, got inf$") as info:
        localize_divergence(kl_formula, HALF, np.inf)
    assert type(info.value) is ValueError


RAGGED = [[0.5, 0.5], [1.0]]


@pytest.mark.parametrize(
    "build, error, argument",
    [
        (lambda: SimplexPoint(RAGGED), NotInteriorError, "SimplexPoint coords"),
        (lambda: TangentVector([[0.5, -0.5], [0.0]]), NotTangentError, "TangentVector components"),
        (lambda: Linear(RAGGED), LandscapeValueError, "Linear matrix"),
        (lambda: Linear([[1.0, [2.0]], [0.0, 1.0]]), LandscapeValueError, "Linear matrix"),
        (lambda: exp_map(HALF, [[0.1], [0.2, 0.3]]), ValueError, "direction"),
    ],
    ids=["simplex", "tangent", "linear", "linear-nested-entry", "exp-map"],
)
def test_a_ragged_input_is_a_shape_fault_named_by_its_owner(build, error, argument):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error
    assert str(info.value).startswith(f"{argument} is ragged: ")


# every reader of a positive caller scalar, and the start of its refusal: a CLI field, a factor,
# a step, a radius, a level
POSITIVE_READERS = {
    "cli": (lambda v: cli._typed("positive", v, "x"), "'x' must be"),
    "factor": (lambda v: Scaled(EYE, v), "scale factor"),
    "dt": (lambda v: dynamics._check_steps(v, 1), "dt"),
    "radius": (lambda v: analysis._sampling_rng(v, 1, 0), "radius"),
    "tau": (lambda v: section(HALF, v), "tau"),
}


def _accepts(read, refusal: str, v) -> bool:
    """False when ``read(v)`` refuses ``v`` by its scalar rule.

    A later failure is not a refusal of ``v``: ``section(x, 5e-324)`` underflows in the product.
    """
    try:
        read(v)
    except (ValueError, SimplexDynError) as exc:
        return not str(exc).startswith(refusal)
    return True


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(
    st.integers(),
    st.sampled_from([BIG, -BIG, 0, 2**1023, 2**1024]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, np.float32(2.0)]),
    st.booleans(),
    st.sampled_from(["2", "0.5", "1/3", "inf", "nan"]),
    st.none(),
))
def test_every_positive_reader_accepts_the_same_values(v):
    accepted = {name: _accepts(*reader, v) for name, reader in POSITIVE_READERS.items()}
    assert len(set(accepted.values())) == 1, accepted


HUGE = 10**5000  # an int Python will not print: more than 4,300 digits


@pytest.mark.parametrize(
    "build, error, argument",
    [
        (lambda: SimplexPoint([HUGE, 1]), NotInteriorError, "SimplexPoint coords entry"),
        (lambda: SimplexPoint([[HUGE, 1], [1]]), NotInteriorError, "SimplexPoint coords is ragged"),
        (lambda: Linear([[HUGE, 0], [0, 1]]), LandscapeValueError, "Linear matrix entry"),
        (lambda: Scaled(EYE, HUGE), ValueError, "scale factor"),
        (lambda: section(HALF, HUGE), NonPositiveTauError, "tau"),
        (lambda: localize_divergence(kl_formula, HALF, HUGE), ValueError, "step h"),
        (lambda: integrate(Replicator(EYE), HALF, HUGE, 1), StepSizeError, "dt"),
        (lambda: integrate(Replicator(EYE), HALF, 0.1, -HUGE), StepSizeError, "steps"),
        (lambda: ess_check(HALF, EYE, -HUGE, 10, 0), ValueError, "radius"),
        (lambda: ess_check(HALF, EYE, 0.1, -HUGE, 0), ValueError, "samples"),
        (lambda: ess_check(HALF, EYE, 0.1, 10, -HUGE), ValueError, "seed"),
        (lambda: gradient_consistency_check(HALF, [0, 0], -HUGE, 0), ValueError, "probes"),
        (lambda: gradient_consistency_check(HALF, [0, 0], 10, -HUGE), ValueError, "seed"),
        (lambda: barycenter(-HUGE), DimensionTooSmallError, "n must be"),
    ],
    ids=["simplex", "ragged", "linear", "scaled", "section", "localize", "dt", "steps",
         "radius", "samples", "ess-seed", "probes", "gradient-seed", "barycenter"],
)
def test_a_refusal_of_an_int_too_long_to_print_is_the_owners_own(build, error, argument):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error and str(info.value).startswith(argument)
    assert "too long to print" in str(info.value)  # "an int …", or "a list …" holding one


def test_a_level_whose_product_underflows_is_refused_naming_tau():
    with pytest.raises(NotInteriorError) as info:
        section(HALF, 5e-324)
    assert str(info.value) == "x * tau underflows to [0. 0.] at level tau = 5e-324"


@pytest.mark.parametrize("n", [3.0, "3", True, 1, np.int64(1), None])
def test_barycenter_reads_n_as_a_count(n):
    with pytest.raises(DimensionTooSmallError, match=r"^n must be an integer >= 2 .*, got "):
        barycenter(n)


def test_barycenter_takes_a_numpy_integer():
    np.testing.assert_array_equal(barycenter(np.int64(3)).coords, np.full(3, 1.0 / 3.0))

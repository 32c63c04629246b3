"""KL divergence, the denormalized orthant form, and summed potential
information.  Reference values are direct evaluations of the defining sums."""

import numpy as np
import pytest

from simplexdyn import (
    DimensionMismatchError,
    LengthMismatchError,
    OrthantPoint,
    SimplexPoint,
    denormalized_kl,
    kl,
    kl_formula,
    potential_information_sum,
)
from simplexdyn.divergence import MIN_TOL

HALF = SimplexPoint(np.array([0.5, 0.5]))
SKEW = SimplexPoint(np.array([0.25, 0.75]))

# 0.5*ln(0.5/0.25) + 0.5*ln(0.5/0.75) = 0.5*ln(4/3)
KL_HALF_SKEW = 0.5 * np.log(4.0 / 3.0)


def test_kl_identity_is_zero():
    assert kl(HALF, HALF) == 0.0
    assert kl(SKEW, SKEW) == 0.0


def test_kl_reference_value():
    assert kl(HALF, SKEW) == pytest.approx(KL_HALF_SKEW, abs=1e-12)
    assert kl(HALF, SKEW) == pytest.approx(0.1438410362, abs=1e-9)


def test_kl_is_asymmetric():
    forward = kl(HALF, SKEW)
    backward = kl(SKEW, HALF)
    assert backward == pytest.approx(0.25 * np.log(0.5) + 0.75 * np.log(1.5), abs=1e-12)
    assert abs(forward - backward) > 0.01


def test_kl_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        kl(HALF, SimplexPoint(np.array([0.25, 0.25, 0.5])))


def test_kl_nonnegative_and_zero_only_at_equality():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        raw_a = rng.uniform(0.05, 1.0, size=n)
        raw_b = rng.uniform(0.05, 1.0, size=n)
        a = SimplexPoint(raw_a / raw_a.sum())
        b = SimplexPoint(raw_b / raw_b.sum())
        value = kl(a, b)
        assert value >= 0.0
        if value <= MIN_TOL:
            assert np.max(np.abs(a.coords - b.coords)) <= 1e-8


def test_kl_continuity_bound():
    rng = np.random.default_rng(19)
    raw = rng.uniform(0.2, 1.0, size=3)
    x = SimplexPoint(raw / raw.sum())
    target = SimplexPoint(np.array([0.3, 0.3, 0.4]))
    base = kl(target, x)
    delta = 1e-6
    bump = x.coords + np.array([delta, -delta, 0.0])
    moved = kl(target, SimplexPoint(bump / bump.sum()))
    assert abs(moved - base) <= 10.0 * delta / np.min(x.coords)


def test_kl_formula_unclamped_off_simplex():
    # off the simplex the algebraic form may go negative; localization
    # depends on evaluating it as-is
    value = kl_formula(np.array([0.4, 0.4]), np.array([0.5, 0.5]))
    assert value < 0.0


def test_denormalized_examples():
    assert denormalized_kl(OrthantPoint(np.array([2.0, 2.0])), OrthantPoint(np.array([7.0, 7.0]))) == 0.0
    assert denormalized_kl(
        OrthantPoint(np.array([1.0, 1.0])), OrthantPoint(np.array([1.0, 3.0]))
    ) == pytest.approx(KL_HALF_SKEW, abs=1e-12)
    # a finite abundance whose total overflows
    assert denormalized_kl(
        OrthantPoint(np.array([1e308, 1e308])), OrthantPoint(np.array([1.0, 3.0]))
    ) == pytest.approx(KL_HALF_SKEW, abs=1e-12)


def test_denormalized_kl_refuses_abundances_of_two_dimensions():
    with pytest.raises(DimensionMismatchError) as info:
        denormalized_kl(OrthantPoint(np.array([1.0, 2.0])), OrthantPoint(np.ones(3)))
    assert str(info.value) == "dimension mismatch: target has 2, state has 3"


def test_denormalized_scale_invariance():
    rng = np.random.default_rng(23)
    t = OrthantPoint(rng.uniform(0.5, 2.0, size=4))
    x = OrthantPoint(rng.uniform(0.5, 2.0, size=4))
    base = denormalized_kl(t, x)
    for c, cp in ((2.0, 1.0), (1.0, 3.5), (0.25, 11.0)):
        scaled = denormalized_kl(
            OrthantPoint(cp * t.coords), OrthantPoint(c * x.coords)
        )
        assert scaled == pytest.approx(base, abs=1e-12)
    assert denormalized_kl(x, OrthantPoint(5.0 * x.coords)) <= MIN_TOL


def test_potential_information_sum():
    single = potential_information_sum([HALF], [SKEW])
    assert single == pytest.approx(KL_HALF_SKEW, abs=1e-12)
    assert potential_information_sum([HALF, SKEW], [HALF, SKEW]) == 0.0
    double = potential_information_sum([HALF, HALF], [SKEW, SKEW])
    assert double == pytest.approx(2.0 * KL_HALF_SKEW, abs=1e-12)
    assert double == pytest.approx(0.2876820724, abs=1e-9)


def test_potential_information_sum_additive():
    t1, s1 = HALF, SKEW
    t2 = SimplexPoint(np.array([0.2, 0.3, 0.5]))
    s2 = SimplexPoint(np.array([0.4, 0.4, 0.2]))
    joint = potential_information_sum([t1, t2], [s1, s2])
    split = potential_information_sum([t1], [s1]) + potential_information_sum([t2], [s2])
    assert joint == pytest.approx(split, abs=1e-14)


def test_potential_information_sum_length_checks():
    with pytest.raises(LengthMismatchError):
        potential_information_sum([HALF], [HALF, SKEW])
    with pytest.raises(LengthMismatchError):
        potential_information_sum([], [])

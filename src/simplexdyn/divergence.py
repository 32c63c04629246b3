"""Kullback-Leibler divergence and its denormalized and coupled variants.

All values are in nats.  These functions double as Lyapunov candidates for
the dynamics module: KL for frequency dynamics, the denormalized form for
abundance dynamics, and the sum form for coupled populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OrthantPoint, SimplexPoint, normalize
from .errors import DimensionMismatchError, LengthMismatchError

#: Divergence values at or below this threshold count as minimized.
MIN_TOL = 1e-12


@dataclass(frozen=True)
class DivergenceReport:
    """A divergence value together with its minimization classification."""

    value: float
    minimized: bool

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError(f"divergence must be non-negative, got {self.value}")


def as_report(value: float) -> DivergenceReport:
    """Classify a divergence value against MIN_TOL."""
    value = float(value)
    return DivergenceReport(value=value, minimized=value <= MIN_TOL)


def kl_formula(a, b):
    """Raw algebraic form sum_i a_i (log a_i - log b_i) for positive vectors.

    This is the smooth extension used by divergence localization; it is
    deliberately not clamped, because off the simplex the expression can be
    legitimately negative.  Stacked arguments of shape (..., n) broadcast and
    sum over the last axis into an array; one pair of vectors gives a float.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    value = np.sum(a * (np.log(a) - np.log(b)), axis=-1)
    return float(value) if value.ndim == 0 else value


def kl(target: SimplexPoint, x: SimplexPoint) -> float:
    """Kullback-Leibler divergence D(target || x) in nats."""
    if target.dim != x.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: target has {target.dim}, state has {x.dim}"
        )
    value = kl_formula(target.coords, x.coords)
    # The exact value is >= 0; floor out last-ulp rounding noise.
    return max(value, 0.0)


def denormalized_kl(target: OrthantPoint, x: OrthantPoint) -> float:
    """Divergence between the normalizations of two abundance vectors.

    Invariant under independent positive rescalings of either argument.
    """
    if target.dim != x.dim:
        raise DimensionMismatchError(
            f"dimension mismatch: target has {target.dim}, state has {x.dim}"
        )
    return kl(normalize(target), normalize(x))


def potential_information_sum(
    targets: Sequence[SimplexPoint], states: Sequence[SimplexPoint]
) -> float:
    """Sum of KL divergences over paired populations.

    This is the Lyapunov candidate for coupled dynamics: additive over
    populations and zero exactly when every state matches its target.
    """
    if len(targets) != len(states) or len(targets) == 0:
        raise LengthMismatchError(
            f"need equal-length non-empty lists, got {len(targets)} targets "
            f"and {len(states)} states"
        )
    return float(sum(kl(t, s) for t, s in zip(targets, states)))

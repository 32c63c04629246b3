"""Riemannian structure of the simplex interior and the positive orthant.

The diagonal metric 1/x_i on the simplex interior is simultaneously the
Shahshahani metric and the Fisher information metric of the categorical
family; this module computes it three independent ways (closed form,
probabilistic expectation, and local expansion of a divergence) so the
agreements can be tested rather than assumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (OrthantPoint, SimplexPoint, TangentVector, _is_positive, _per_total, _reals,
                   _shown)
from .divergence import kl_formula
from .errors import (
    DimensionMismatchError,
    NotDiagonalError,
    StepTooLargeError,
)

#: Off-diagonal magnitude above which a localized divergence is rejected
#: as non-diagonal (calibrated for central differences with h = 1e-3).
OFFDIAG_TOL = 1e-3


class OrthantMetricKind(enum.Enum):
    """Diagonal metric family on the positive orthant."""

    SHAHSHAHANI = "shahshahani"  # |x| / x_i
    AKIN = "akin"  # 1 / x_i


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Diagonal Riemannian metric, stored as its positive diagonal."""

    diag: np.ndarray

    def __post_init__(self):
        diag = _reals(self.diag, "metric diagonal")
        if diag.ndim != 1 or not np.all(np.isfinite(diag)) or not np.all(diag > 0.0):
            raise ValueError(f"metric diagonal must be positive and finite, got {diag}")
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.size


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """Result of localizing a divergence to a quadratic form at a point.

    ``sign`` records whether the raw mixed second derivative came out
    positive (+1) or negative (-1) definite; ``metric`` always stores the
    absolute diagonal.
    """

    metric: MetricTensor
    sign: int
    max_offdiag: float


def _held_metric(x: SimplexPoint | OrthantPoint, diag_of: Callable, formula: str) -> MetricTensor:
    """The metric of diagonal ``diag_of(x.coords)``; OverflowError names an x_i it overflows at."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        diag = diag_of(x.coords)
    held = np.isfinite(diag)
    if not held.all():
        i = int(np.argmin(held))
        raise OverflowError(f"metric diagonal {formula} overflows float64 at x_{i} = "
                            f"{float(x.coords[i])!r}")
    return MetricTensor(diag)


def metric_at(x: SimplexPoint) -> MetricTensor:
    """Simplex-interior metric: diagonal 1/x_i."""
    return _held_metric(x, lambda c: 1.0 / c, "1 / x_i")


def fisher_metric_at(x: SimplexPoint) -> MetricTensor:
    """Fisher information metric computed as an expectation of score products.

    Treats x as a categorical distribution with scores
    d log p(k)/d x_i = delta_ik / x_i and evaluates
    E[s_i s_j] = sum_k x_k s_i(k) s_j(k) literally, without reusing
    ``metric_at``.
    """

    def expectation(coords):
        scores = np.diag(1.0 / coords)
        return np.diag(np.einsum("ik,k,jk->ij", scores, coords, scores)).copy()

    return _held_metric(x, expectation, "E[s_i s_i]")


def orthant_metric_at(x: OrthantPoint, kind: OrthantMetricKind) -> MetricTensor:
    """Orthant extension of the simplex metric, in either convention."""
    if kind is OrthantMetricKind.SHAHSHAHANI:
        return _held_metric(x, lambda c: x.total / c, "|x| / x_i")
    if kind is OrthantMetricKind.AKIN:
        return metric_at(x)
    raise TypeError(f"unknown orthant metric kind: {kind!r}")


def inner_product(x: SimplexPoint, v: TangentVector, w: TangentVector) -> float:
    """Metric inner product <v, w>_x = sum_i v_i w_i / x_i."""
    if v.dim != x.dim or w.dim != x.dim:
        raise DimensionMismatchError(
            f"tangent dimensions {v.dim}, {w.dim} do not match point dimension {x.dim}"
        )
    return float(np.sum(v.components * w.components / x.coords))


def shahshahani_gradient(x: SimplexPoint, euclidean_grad) -> TangentVector:
    """Metric gradient of a potential with Euclidean gradient ``euclidean_grad``.

    Component i is x_i * (grad_i - x . grad); the subtraction of the exact
    weighted mean makes the result a tangent vector, and the defining
    property <grad_g V, w>_x = grad V . w holds for every tangent w.
    """
    grad = _reals(euclidean_grad, "gradient", finite=True)
    if grad.shape != (x.dim,):
        raise DimensionMismatchError(
            f"gradient shape {grad.shape} does not match point dimension {x.dim}"
        )
    gbar = float(np.dot(x.coords, grad))
    return TangentVector(x.coords * (grad - gbar))


def exp_map(x: SimplexPoint, v) -> SimplexPoint:
    """Multiplicative exponential coordinate change x_i e^{v_i} / sum_j x_j e^{v_j}.

    The largest component of v is subtracted before exponentiating, so the
    computation cannot overflow; if the spread of v is so extreme that some
    other coordinate underflows to zero (or the shift itself overflows), an
    OverflowError is raised rather than returning a boundary point.  A
    non-finite entry of v is a ValueError.
    """
    v = _reals(v, "direction", finite=True)
    if v.shape != (x.dim,):
        raise DimensionMismatchError(
            f"direction shape {v.shape} does not match point dimension {x.dim}"
        )
    with np.errstate(over="ignore"):  # a spread beyond float64 is the OverflowError below
        shifted = v - v.max()
    weights = x.coords * np.exp(shifted)
    if not np.all(weights > 0.0):
        raise OverflowError(
            "exponential map underflowed: direction spread too large for float64"
        )
    return SimplexPoint(_per_total(weights))


def localize_divergence(
    divergence: Callable[[np.ndarray, np.ndarray], float],
    x: SimplexPoint,
    h: float,
) -> LocalizationReport:
    """Recover the local quadratic form of a divergence via central differences.

    Estimates M_ij = d^2 D(a, b) / da_i db_j at a = b = x with the
    four-point stencil

        [D(x+h e_i, x+h e_j) - D(x+h e_i, x-h e_j)
         - D(x-h e_i, x+h e_j) + D(x-h e_i, x-h e_j)] / (4 h^2).

    Perturbed arguments are passed to ``divergence`` as raw vectors without
    renormalization, so the callable must be the smooth algebraic formula
    (it is evaluated slightly off the simplex).  ``kl_formula`` itself is
    called 2n times, once per grid row against the stacked grid; any other
    callable is called once per pair, (2n)^2 times.  If the off-diagonal
    magnitudes exceed OFFDIAG_TOL the divergence does not localize to a
    diagonal form and NotDiagonalError is raised, as it is when a second
    derivative is not finite (a step so small that 4 h^2 underflows).
    """
    if not _is_positive(h):
        raise ValueError(f"step h must be > 0, got {_shown(h)}")
    base = x.coords
    n = base.size
    if float(base.min()) <= h:
        raise StepTooLargeError(
            f"step {h} is not smaller than the smallest coordinate {base.min()}"
        )
    # rows x + h e_i, then x - h e_i; d[a, b] = D(grid[a], grid[b])
    grid = np.concatenate([base + h * np.eye(n), base - h * np.eye(n)])
    if divergence is kl_formula:  # one stacked call per row, the bits of one call per pair
        d = np.array([kl_formula(a, grid) for a in grid])
    else:
        d = np.array([[divergence(a, b) for b in grid] for a in grid], dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # 4 h^2 may underflow
        mixed = (d[:n, :n] - d[:n, n:] - d[n:, :n] + d[n:, n:]) / (4.0 * h * h)
    if not np.all(np.isfinite(mixed)):  # before the off-diagonal test, which a NaN would pass
        raise NotDiagonalError(f"localized second derivatives are not finite at step h = {h}")
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

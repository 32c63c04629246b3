"""Stability certification and identity checks for simplex dynamics.

Evolutionary stability is certified numerically: margins of the candidate
against seeded random neighborhood samples.  Margins within the floating
point indeterminacy band (|margin| <= 1e-12) are counted separately and are
neutral evidence — they never flip the verdict in either direction, so a
flat landscape (margin identically zero) is reported as not stable rather
than flapping on rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CoupledState,
    Landscape,
    Linear,
    OrthantPoint,
    SimplexPoint,
    TangentVector,
    evaluate_landscape_batch,
    normalize,
)
from .divergence import kl_formula
from .dynamics import (
    CoupledReplicator,
    Ecological,
    LotkaVolterra,
    Replicator,
    ShiftedLotkaVolterra,
    Trajectory,
    _uniform_step,
)
from .errors import (
    DimensionMismatchError,
    KindMismatchError,
    NotSymmetricError,
    RadiusTooLargeError,
)
from .geometry import inner_product, shahshahani_gradient

#: Strict stability threshold on the minimum sampled margin.
MARGIN_TOL = 0.0
#: Margins within this band of zero are boundary-indeterminate.
INDETERMINATE_BAND = 1e-12
#: Allowed per-step increase for a "monotone" Lyapunov series.
MONO_SLACK = 1e-9
#: Divergence level at or below which a trajectory counts as converged.
CONV_TOL = 1e-6
#: Sine-of-angle threshold for flagging a state as parallel to the target.
PARALLEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EssReport:
    """Outcome of a sampled stability check.

    ``margins`` and ``samples`` hold the full evaluation record so the
    sampled values can be compared against closed forms.
    """

    is_ess: bool
    min_margin: float
    samples_tested: int
    radius: float
    indeterminate: int
    margins: np.ndarray
    samples: np.ndarray
    parallel_samples: Optional[int] = None


@dataclass(frozen=True, eq=False)
class LyapunovReport:
    """Summary of a divergence series monitored along a trajectory."""

    monotone: bool
    max_increase: float
    final_value: float
    converged: bool
    initial_value: float
    values: np.ndarray
    parallel_before_convergence: Optional[int] = None


def _verdict(margins: np.ndarray) -> tuple[bool, int]:
    """Apply the indeterminacy-band semantics to sampled margins."""
    indeterminate = int(np.sum(np.abs(margins) <= INDETERMINATE_BAND))
    any_negative = bool(np.any(margins < -INDETERMINATE_BAND))
    any_positive = bool(np.any(margins > INDETERMINATE_BAND))
    return (not any_negative) and any_positive, indeterminate


def _check_sampling(radius: float, samples: int) -> None:
    if not (float(radius) > 0.0):
        raise ValueError(f"radius must be > 0, got {radius}")
    if int(samples) != samples or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")


def _tangent_ball_samples(
    rng: np.random.Generator, center: np.ndarray, radius: float, count: int
) -> np.ndarray:
    """Uniform draws from the tangent ball around ``center``, renormalized.

    Each draw is a zero-sum direction scaled for uniformity over the
    (n-1)-dimensional ball; the perturbed point must stay strictly positive
    (otherwise the radius is too large for this center) and is then divided
    by its exact coordinate sum to remove rounding drift.
    """
    n = center.size
    out = np.empty((count, n))
    for k in range(count):
        while True:
            z = rng.standard_normal(n)
            z -= z.mean()
            norm = float(np.linalg.norm(z))
            if norm > 1e-12:
                break
        u = z * (radius * rng.random() ** (1.0 / (n - 1)) / norm)
        point = center + u
        if not np.all(point > 0.0):
            raise RadiusTooLargeError(
                f"sample left the interior: radius {radius} too large around {center}"
            )
        out[k] = point / point.sum()
    return out


def _orthant_ball_samples(
    rng: np.random.Generator, center: np.ndarray, radius: float, count: int
) -> np.ndarray:
    """Uniform draws from the full-dimensional ball around an abundance vector."""
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


def ess_check(
    candidate: SimplexPoint, f: Landscape, radius: float, samples: int, seed: int
) -> EssReport:
    """Sampled test of evolutionary stability of ``candidate`` under ``f``.

    The margin at a sampled state x is candidate . f(x) - x . f(x); the
    candidate is evolutionarily stable on the sampled neighborhood when no
    margin is definitely negative and at least one is definitely positive.
    """
    _check_sampling(radius, samples)
    rng = np.random.default_rng(seed)
    points = _tangent_ball_samples(rng, candidate.coords, radius, int(samples))
    payoff = evaluate_landscape_batch(f, points)
    margins = payoff @ candidate.coords - np.einsum("ij,ij->i", points, payoff)
    is_ess, indeterminate = _verdict(margins)
    return EssReport(
        is_ess=is_ess,
        min_margin=float(margins.min()),
        samples_tested=int(samples),
        radius=float(radius),
        indeterminate=indeterminate,
        margins=margins,
        samples=points,
    )


def coupled_ess_check(
    p_hat: SimplexPoint,
    q_hat: SimplexPoint,
    f: Landscape,
    g: Landscape,
    radius: float,
    samples: int,
    seed: int,
) -> EssReport:
    """Joint stability check for two populations.

    Samples (p, q) from the product of tangent balls and evaluates the
    summed margin p_hat . f(p,q) + q_hat . g(p,q) - p . f(p,q) - q . g(p,q).
    """
    _check_sampling(radius, samples)
    rng = np.random.default_rng(seed)
    p_hat = p_hat.coords
    q_hat = q_hat.coords
    count = int(samples)
    p_rows = np.empty((count, p_hat.size))
    q_rows = np.empty((count, q_hat.size))
    for k in range(count):
        p_rows[k] = _tangent_ball_samples(rng, p_hat, radius, 1)[0]
        q_rows[k] = _tangent_ball_samples(rng, q_hat, radius, 1)[0]
    fp = evaluate_landscape_batch(f, p_rows, q_rows)
    gq = evaluate_landscape_batch(g, q_rows, p_rows)
    margins = (
        fp @ p_hat
        + gq @ q_hat
        - np.einsum("ij,ij->i", p_rows, fp)
        - np.einsum("ij,ij->i", q_rows, gq)
    )
    is_ess, indeterminate = _verdict(margins)
    return EssReport(
        is_ess=is_ess,
        min_margin=float(margins.min()),
        samples_tested=count,
        radius=float(radius),
        indeterminate=indeterminate,
        margins=margins,
        samples=np.hstack([p_rows, q_rows]),
    )


def _sine_to_direction(states: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Row-wise sine of the angle between states and a fixed direction."""
    unit = direction / np.linalg.norm(direction)
    proj = states @ unit
    residual = states - proj[:, None] * unit
    norms = np.linalg.norm(states, axis=1)
    return np.linalg.norm(residual, axis=1) / norms


def denormalized_ess_check(
    candidate: OrthantPoint, f: Landscape, radius: float, samples: int, seed: int
) -> EssReport:
    """Stability check for abundance dynamics via the denormalized margin.

    The margin at an orthant sample x is
    candidate . f(x) / |candidate| - x . f(x) / |x|.  The report also counts
    samples that are parallel to the candidate within PARALLEL_TOL (sine of
    the angle), since the denormalized divergence cannot separate a point
    from its positive multiples.
    """
    _check_sampling(radius, samples)
    rng = np.random.default_rng(seed)
    points = _orthant_ball_samples(rng, candidate.coords, radius, int(samples))
    payoff = evaluate_landscape_batch(f, points)
    margins = payoff @ candidate.coords / candidate.total - np.einsum(
        "ij,ij->i", points, payoff
    ) / points.sum(axis=1)
    is_ess, indeterminate = _verdict(margins)
    parallel = int(np.sum(_sine_to_direction(points, candidate.coords) <= PARALLEL_TOL))
    return EssReport(
        is_ess=is_ess,
        min_margin=float(margins.min()),
        samples_tested=int(samples),
        radius=float(radius),
        indeterminate=indeterminate,
        margins=margins,
        samples=points,
        parallel_samples=parallel,
    )


# ---------------------------------------------------------------------------
# Trajectory monitors
# ---------------------------------------------------------------------------


def _divergence_series(traj: Trajectory, target) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Kind-appropriate divergence of every recorded state from the target.

    Returns the series and, for abundance kinds, the per-state sine of the
    angle to the target ray (None otherwise).
    """
    kind = traj.kind
    if isinstance(kind, (Replicator, Ecological)):
        if not isinstance(target, SimplexPoint):
            raise KindMismatchError("simplex trajectory requires a SimplexPoint target")
        if target.dim != traj.states.shape[1]:
            raise DimensionMismatchError("target dimension does not match trajectory")
        t = target.coords
        values = np.array([max(kl_formula(t, row), 0.0) for row in traj.states])
        return values, None
    if isinstance(kind, (LotkaVolterra, ShiftedLotkaVolterra)):
        if not isinstance(target, OrthantPoint):
            raise KindMismatchError("abundance trajectory requires an OrthantPoint target")
        if target.dim != traj.states.shape[1]:
            raise DimensionMismatchError("target dimension does not match trajectory")
        t = normalize(target).coords
        totals = traj.states.sum(axis=1)
        freqs = traj.states / totals[:, None]
        values = np.array([max(kl_formula(t, row), 0.0) for row in freqs])
        return values, _sine_to_direction(traj.states, target.coords)
    if isinstance(kind, CoupledReplicator):
        if not isinstance(target, CoupledState):
            raise KindMismatchError("coupled trajectory requires a CoupledState target")
        split = traj.split
        if target.pop1.dim != split or target.pop2.dim != traj.states.shape[1] - split:
            raise DimensionMismatchError("target dimensions do not match trajectory")
        t1 = target.pop1.coords
        t2 = target.pop2.coords
        values = np.array(
            [
                max(kl_formula(t1, row[:split]), 0.0) + max(kl_formula(t2, row[split:]), 0.0)
                for row in traj.states
            ]
        )
        return values, None
    raise KindMismatchError(f"unknown trajectory kind: {type(kind).__name__}")


def lyapunov_monitor(traj: Trajectory, target) -> LyapunovReport:
    """Monitor the kind-appropriate divergence-to-target along a trajectory.

    ``max_increase`` is the largest positive jump between consecutive
    steps (0 when the series never rises); the series is monotone when that
    jump is within MONO_SLACK.  For abundance kinds the report also counts
    states parallel to the target ray occurring before the first converged
    step, the blind spot of the denormalized divergence.
    """
    values, sines = _divergence_series(traj, target)
    if values.size > 1:
        max_increase = max(0.0, float(np.max(np.diff(values))))
    else:
        max_increase = 0.0
    final_value = float(values[-1])
    converged_idx = np.nonzero(values <= CONV_TOL)[0]
    parallel_count = None
    if sines is not None:
        cutoff = int(converged_idx[0]) if converged_idx.size else values.size
        parallel_count = int(np.sum(sines[:cutoff] <= PARALLEL_TOL))
    return LyapunovReport(
        monotone=max_increase <= MONO_SLACK,
        max_increase=max_increase,
        final_value=final_value,
        converged=final_value <= CONV_TOL,
        initial_value=float(values[0]),
        values=values,
        parallel_before_convergence=parallel_count,
    )


def fisher_theorem_check(traj: Trajectory) -> float:
    """Residual of the identity dV/dt = payoff variance along a trajectory.

    Applies to replicator dynamics with a symmetric linear payoff A, where
    the flow ascends the potential V(x) = x . A x / 2.  The time derivative
    is estimated by central differences on the recorded states, the variance
    is recomputed pointwise, and the largest absolute mismatch over interior
    steps is returned.
    """
    kind = traj.kind
    if not isinstance(kind, Replicator) or not isinstance(kind.f, Linear):
        raise KindMismatchError("check requires replicator dynamics with a linear payoff")
    matrix = kind.f.matrix
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise NotSymmetricError("payoff matrix must be symmetric")
    dt = _uniform_step(traj, "check")
    states = traj.states
    payoff = evaluate_landscape_batch(kind.f, states)
    potential = 0.5 * np.einsum("ij,ij->i", states, payoff)
    mean = np.einsum("ij,ij->i", states, payoff)
    variance = np.einsum("ij,ij->i", states, (payoff - mean[:, None]) ** 2)
    derivative = (potential[2:] - potential[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(derivative - variance[1:-1])))


def gradient_consistency_check(
    x: SimplexPoint, potential_grad, probes: int, seed: int
) -> float:
    """Largest defect of the metric-gradient defining property at ``x``.

    For random zero-sum probe directions w the identity
    <grad_g V, w>_x = grad V . w must hold; returns the max absolute
    difference over the probes.
    """
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

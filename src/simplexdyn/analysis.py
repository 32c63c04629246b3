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
from functools import reduce
from typing import Optional

import numpy as np

from .core import (
    CoupledState,
    Landscape,
    Linear,
    OrthantPoint,
    SimplexPoint,
    evaluate_landscape_batch,
)
from .divergence import kl_formula
from .dynamics import (
    CoupledReplicator,
    LotkaVolterra,
    Replicator,
    ShiftedLotkaVolterra,
    Trajectory,
    _blocks,
    _frequencies,
    _target_vector,
    _uniform_step,
)
from .errors import (
    KindMismatchError,
    NotSymmetricError,
    RadiusTooLargeError,
)
# inner_product is no longer called here; bench/tracing.py rebinds this name, so it stays and
# geometry.inner_product.calls reads 0 rather than going absent
from .geometry import inner_product, shahshahani_gradient  # noqa: F401

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


def _ess_report(
    margins: np.ndarray, points: np.ndarray, radius: float, samples: int, parallel=None
) -> EssReport:
    """Apply the indeterminacy-band semantics to sampled margins."""
    any_negative = bool(np.any(margins < -INDETERMINATE_BAND))
    any_positive = bool(np.any(margins > INDETERMINATE_BAND))
    return EssReport(
        is_ess=(not any_negative) and any_positive,
        min_margin=float(margins.min()),
        samples_tested=int(samples),
        radius=float(radius),
        indeterminate=int(np.sum(np.abs(margins) <= INDETERMINATE_BAND)),
        margins=margins,
        samples=points,
        parallel_samples=parallel,
    )


def _sampling_rng(radius: float, samples: int, seed: int) -> np.random.Generator:
    """The seeded generator of a sampled check, once its radius and sample count are valid."""
    if not (float(radius) > 0.0):
        raise ValueError(f"radius must be > 0, got {radius}")
    if int(samples) != samples or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    return np.random.default_rng(seed)


def _ball_draws(
    rng: np.random.Generator, dims: list, radius: float, count: int, accept=None
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``count`` samples, in the samplers' fixed order.

    Per sample, and within it per block of size n and radial power p: first
    ``rng.standard_normal(n)``, drawn again while ``accept`` refuses it, then
    ``rng.random()``, kept as the Python float ``radius * u ** p``.  Returns the
    normals, one row per sample, and the radii, one column per block.
    """
    normal, uniform = rng.standard_normal, rng.random
    normals, radii = [], []
    for _ in range(count):
        for n, power in dims:
            z = normal(n)
            while accept is not None and not accept(z):
                z = normal(n)
            normals.append(z)
            radii.append(radius * uniform() ** power)
    return np.concatenate(normals).reshape(count, -1), np.array(radii).reshape(count, len(dims))


def _ball_samples(
    rng: np.random.Generator, centers: list, radius: float, count: int, tangent: bool
) -> np.ndarray:
    """Uniform draws from a ball around each center: one vectorized pass over the draws.

    A tangent ball centers each normal draw to a zero-sum direction and uses
    the radial power 1/(n-1); the orthant ball uses the raw draw and 1/n.  A
    draw whose direction has norm <= 1e-12 is refused: when one occurs, the
    generator is rewound and the draws are made again with the refusal inside
    the loop, so the samples do not depend on whether that happened.
    """
    dims = [(c.size, 1.0 / (c.size - 1) if tangent else 1.0 / c.size) for c in centers]
    cols = np.cumsum([0] + [c.size for c in centers])

    def directions(normals):
        out = []
        for b in range(len(centers)):
            z = normals[:, cols[b] : cols[b + 1]]
            if tangent:
                z = z - z.mean(axis=1, keepdims=True)
            # the broadcast matmul is np.dot per row, so these are np.linalg.norm's bits
            out.append((z, np.sqrt(np.matmul(z[:, None, :], z[:, :, None]))[:, 0, 0]))
        return out

    def accept(z):
        return float(np.linalg.norm(z - z.mean() if tangent else z)) > 1e-12

    state = rng.bit_generator.state
    normals, radii = _ball_draws(rng, dims, radius, count)
    blocks = directions(normals)
    if not all(np.all(norm > 1e-12) for _, norm in blocks):
        rng.bit_generator.state = state
        normals, radii = _ball_draws(rng, dims, radius, count, accept)
        blocks = directions(normals)
    points, outside = [], []
    for (z, norm), center, scale in zip(blocks, centers, radii.T):
        point = center + z * (scale / norm)[:, None]
        outside.append(~np.all(point > 0.0, axis=1))
        points.append(point / point.sum(axis=1, keepdims=True) if tangent else point)
    outside = np.stack(outside, axis=1)
    if outside.any():  # the first bad draw, sample-major and block-minor
        center = centers[int(outside.argmax()) % len(centers)]
        where = "the interior" if tangent else "the positive orthant"
        raise RadiusTooLargeError(
            f"sample left {where}: radius {radius} too large around {center}"
        )
    return np.concatenate(points, axis=1)


def _tangent_ball_samples(
    rng: np.random.Generator, centers: list, radius: float, count: int
) -> np.ndarray:
    """Uniform draws from the tangent ball around each center, renormalized.

    A row holds one draw per center, in order: a zero-sum direction scaled for
    uniformity over the (n-1)-dimensional ball.  The perturbed point must stay
    strictly positive (otherwise the radius is too large for this center) and
    is then divided by its exact coordinate sum to remove rounding drift.

    Draw order, which fixes the samples of a seed: per sample, and within it
    per center, ``rng.standard_normal(n)`` (again while its centered norm is
    <= 1e-12), then ``rng.random()``.
    """
    return _ball_samples(rng, centers, radius, count, tangent=True)


def _orthant_ball_samples(
    rng: np.random.Generator, center: np.ndarray, radius: float, count: int
) -> np.ndarray:
    """Uniform draws from the full-dimensional ball around an abundance vector.

    Draw order, which fixes the samples of a seed: per sample,
    ``rng.standard_normal(n)`` (again while its norm is <= 1e-12), then
    ``rng.random()``.
    """
    return _ball_samples(rng, [center], radius, count, tangent=False)


def _simplex_ess(
    kind, hat: np.ndarray, split: Optional[int], radius: float, samples: int, seed: int
) -> EssReport:
    """Sampled stability of ``hat`` under ``kind``, one tangent-ball draw per population block.

    The margin at a sample x is sum_b hat_b . f_b(x) - sum_b x_b . f_b(x).
    """
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


def ess_check(
    candidate: SimplexPoint, f: Landscape, radius: float, samples: int, seed: int
) -> EssReport:
    """Sampled test of evolutionary stability of ``candidate`` under ``f``.

    The margin at a sampled state x is candidate . f(x) - x . f(x); the
    candidate is evolutionarily stable on the sampled neighborhood when no
    margin is definitely negative and at least one is definitely positive.
    """
    return _simplex_ess(Replicator(f), candidate.coords, None, radius, samples, seed)


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
    hat = CoupledState(p_hat, q_hat).concatenated()
    return _simplex_ess(CoupledReplicator(f, g), hat, p_hat.dim, radius, samples, seed)


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
    rng = _sampling_rng(radius, samples, seed)
    points = _orthant_ball_samples(rng, candidate.coords, radius, int(samples))
    payoff = evaluate_landscape_batch(f, points)
    margins = payoff @ candidate.coords / candidate.total - np.einsum(
        "ij,ij->i", points, payoff
    ) / points.sum(axis=1)
    parallel = int(np.sum(_sine_to_direction(points, candidate.coords) <= PARALLEL_TOL))
    return _ess_report(margins, points, radius, samples, parallel)


# ---------------------------------------------------------------------------
# Trajectory monitors
# ---------------------------------------------------------------------------


def _divergence_series(traj: Trajectory, target) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Kind-appropriate divergence of every recorded state from the target.

    The divergence is KL between frequencies, summed over population blocks.
    Returns the series and, for abundance kinds, the per-state sine of the
    angle to the target ray (None otherwise).
    """
    kind = traj.kind
    t = _target_vector(kind, target, traj.states.shape[1], traj.split)
    rows, t = _frequencies(kind, traj.states, t)
    values = [
        np.maximum(kl_formula(t[own], rows[:, own]), 0.0) for own, _, _ in _blocks(kind, traj.split)
    ]
    orthant = isinstance(kind, (LotkaVolterra, ShiftedLotkaVolterra))
    sines = _sine_to_direction(traj.states, target.coords) if orthant else None
    return reduce(np.add, values), sines


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


def _require_fisher_kind(kind) -> None:
    """Raise unless ``kind`` is replicator dynamics with a symmetric linear payoff."""
    if not isinstance(kind, Replicator) or not isinstance(kind.f, Linear):
        raise KindMismatchError("check requires replicator dynamics with a linear payoff")
    matrix = kind.f.matrix
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise NotSymmetricError("payoff matrix must be symmetric")


def fisher_theorem_check(traj: Trajectory) -> float:
    """Residual of the identity dV/dt = payoff variance along a trajectory.

    Applies to replicator dynamics with a symmetric linear payoff A, where
    the flow ascends the potential V(x) = x . A x / 2.  The time derivative
    is estimated by central differences on the recorded states, the variance
    is recomputed pointwise, and the largest absolute mismatch over interior
    steps is returned.
    """
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
    metric_grad = shahshahani_gradient(x, grad_vec).components
    w = np.random.default_rng(seed).standard_normal((int(probes), x.dim))  # one stream, row by row
    w = w - w.mean(axis=1, keepdims=True)
    lhs = (metric_grad * w / x.coords).sum(axis=-1)  # <grad_g V, w>_x, as geometry.inner_product
    rhs = np.matmul(w[:, None, :], grad_vec[:, None])[:, 0, 0]  # np.dot per row
    # fmax skips a NaN defect, as a running max() does
    return float(np.fmax.reduce(np.abs(lhs - rhs), initial=0.0))

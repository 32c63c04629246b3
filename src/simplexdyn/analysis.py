"""Stability certification and identity checks for simplex dynamics.

Evolutionary stability is certified numerically: margins of the candidate
against seeded random neighborhood samples.  Margins within the floating
point indeterminacy band (|margin| <= 1e-12) are counted separately and are
neutral evidence — they never flip the verdict in either direction, so a
flat landscape (margin identically zero) is reported as not stable rather
than flapping on rounding noise.  A NaN margin is counted as indeterminate
too, but a margin set that holds one certifies nothing: stability needs every
margin to be >= -1e-12, and NaN is not.
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
    _is_count,
    _is_positive,
    _per_total,
    _shown,
)
from .divergence import kl_formula
from .dynamics import (
    CoupledReplicator,
    LotkaVolterra,
    Replicator,
    Trajectory,
    _block_kl,
    _block_payoffs,
    _blocks,
    _central_residual,
    _frequencies,
    _state_vector,
    _target_vector,
)
from .errors import (
    KindMismatchError,
    NotSymmetricError,
    RadiusTooLargeError,
)
# inner_product is no longer called here; bench/tracing.py rebinds this name, so it stays and
# geometry.inner_product.calls reads 0 rather than going absent
from .geometry import inner_product, shahshahani_gradient  # noqa: F401

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
    initial_value: float
    final_value: float
    drift: float  # final_value - initial_value
    converged: bool
    values: np.ndarray
    parallel_before_convergence: Optional[int] = None


def _ess_report(
    margins: np.ndarray, points: np.ndarray, radius: float, samples: int, parallel=None
) -> EssReport:
    """Apply the indeterminacy-band semantics to sampled margins; a NaN margin is indeterminate."""
    stable = bool(np.all(margins >= -INDETERMINATE_BAND))  # False when a margin is NaN
    decided = int(np.sum(np.abs(margins) > INDETERMINATE_BAND))
    return EssReport(
        is_ess=stable and bool(np.any(margins > INDETERMINATE_BAND)),
        min_margin=float(margins.min()),
        samples_tested=int(samples),
        radius=float(radius),
        indeterminate=margins.size - decided,
        margins=margins,
        samples=points,
        parallel_samples=parallel,
    )


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for an integer ``seed`` >= 0 (a numpy integer too), not a bool or float."""
    if not _is_count(seed, least=0):
        raise ValueError(f"seed must be an integer >= 0, got {_shown(seed)}")
    return np.random.default_rng(seed)


def _sampling_rng(radius: float, samples: int, seed: int) -> np.random.Generator:
    """The seeded generator of a sampled check, once its radius and sample count are valid."""
    if not _is_positive(radius):
        raise ValueError(f"radius must be > 0 and finite, got {_shown(radius)}")
    if not _is_count(samples):
        raise ValueError(f"samples must be a positive integer, got {_shown(samples)}")
    return _seeded_rng(seed)


def _draw_array(count: int, width: int, what: str) -> np.ndarray:
    """An empty (count, width) array for a check's draws, made before the first draw."""
    try:
        return np.empty((count, width))
    except (ValueError, MemoryError) as exc:  # past numpy's index range, or past memory
        raise MemoryError(f"{what} = {count} asks for {width} random draws each, more than one "
                          "array can hold") from exc


def _ball_draws(
    rng: np.random.Generator, dims: list, radius: float, count: int, accept=None
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``count`` samples, in the one draw order every sampler keeps.

    Per sample, and within it per block of size n and radial power p: first
    ``rng.standard_normal(n)``, drawn again while ``accept`` refuses it, then
    ``rng.random()``, kept as the Python float ``radius * u ** p``.  This order
    fixes the samples of a seed, so a change to it moves every sampled margin.
    Returns the normals, one row per sample, and the radii, one column per block.
    """
    normal, uniform = rng.standard_normal, rng.random
    rows, normals, radii = _draw_array(count, sum(n for n, _ in dims), "samples"), [], []
    for _ in range(count):
        for n, power in dims:
            z = normal(n)
            while accept is not None and not accept(z):
                z = normal(n)
            normals.append(z)
            radii.append(radius * uniform() ** power)
    np.concatenate(normals, out=rows.reshape(-1))
    return rows, np.array(radii).reshape(count, len(dims))


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

    def direction(z):
        """The direction of each draw along the last axis of ``z``, and its norm."""
        if tangent:
            z = z - z.mean(axis=-1, keepdims=True)
        # the broadcast matmul is np.dot per draw, so the norms are np.linalg.norm's bits
        return z, np.sqrt(np.matmul(z[..., None, :], z[..., :, None]))[..., 0, 0]

    def directions(normals):
        return [direction(z) for z in np.split(normals, np.cumsum([n for n, _ in dims])[:-1], 1)]

    state = rng.bit_generator.state
    normals, radii = _ball_draws(rng, dims, radius, count)
    blocks = directions(normals)
    if not all(np.all(norm > 1e-12) for _, norm in blocks):
        rng.bit_generator.state = state
        normals, radii = _ball_draws(rng, dims, radius, count, lambda z: direction(z)[1] > 1e-12)
        blocks = directions(normals)
    points, outside = [], []
    # a coordinate float64 cannot hold is outside, and so is a point whose total is 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (z, norm), center, scale in zip(blocks, centers, radii.T):
            point = center + z * (scale / norm)[:, None]
            outside.append(~np.all((point > 0.0) & (point < np.inf), axis=1))
            points.append(_per_total(point) if tangent else point)
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
    The draws, one block per center, come in the order ``_ball_draws`` states.
    """
    return _ball_samples(rng, centers, radius, count, tangent=True)


def _orthant_ball_samples(
    rng: np.random.Generator, center: np.ndarray, radius: float, count: int
) -> np.ndarray:
    """Uniform draws from the full-dimensional ball around an abundance vector.

    The draws come in the order ``_ball_draws`` states, with one block.
    """
    return _ball_samples(rng, [center], radius, count, tangent=False)


def _ess(kind, target, radius: float, samples: int, seed: int) -> EssReport:
    """Sampled stability of ``target`` under ``kind``, one ball draw per population block.

    The margin at a sample x is sum_b hat_b . f_b(x) - sum_b x_b . f_b(x), with hat the target.
    Abundance kinds draw from the orthant ball, divide the target term by |hat| and each sample
    term by |x|, and count the samples parallel to the target.  A side whose total overflows is
    read as its frequencies, whose total is 1.  When every payoff row is finite, so is a sample
    whose term overflows: its margin is then y_hat . f(x) - y . f(x), taken quietly.
    """
    hat, split = _state_vector(kind, target, "target")
    rng = _sampling_rng(radius, samples, seed)
    if kind.state_type is OrthantPoint:
        points = _orthant_ball_samples(rng, hat, radius, int(samples))
        y, y_hat = _per_total(points), _per_total(hat)
        parallel = int(np.sum(_sine_to_direction(y, y_hat) <= PARALLEL_TOL))
        with np.errstate(over="ignore"):
            totals = (hat.sum(), points.sum(axis=1))
        hat = y_hat if totals[0] == np.inf else hat
        over = totals[1] == np.inf
        rows = np.where(over[:, None], y, points) if over.any() else points
        totals = tuple(np.where(total == np.inf, 1.0, total) for total in totals)
    else:
        centers = [hat[own] for own, _, _ in _blocks(kind, split)]
        points = _tangent_ball_samples(rng, centers, radius, int(samples))
        rows, totals, parallel = points, (1.0, 1.0), None  # x / 1.0 is x to the bit
    payoffs = _block_payoffs(kind, points, split)
    # abundance terms of finite payoffs: one that overflows is read from the frequencies below
    quiet = kind.state_type is OrthantPoint and bool(np.all(np.isfinite(payoffs[0][1])))
    with np.errstate(**({"over": "ignore", "invalid": "ignore"} if quiet else {})):
        terms = [reduce(np.add, [payoff @ hat[own] for own, payoff in payoffs]) / totals[0]]
        terms += [np.einsum("ij,ij->i", rows[:, own], payoff) / totals[1] for own, payoff in payoffs]
    if quiet and not np.all(np.isfinite(terms)):
        payoff, redo = payoffs[0][1], ~np.all(np.isfinite(terms), axis=0)
        terms = [np.where(redo, payoff @ y_hat, terms[0]),
                 np.where(redo, np.einsum("ij,ij->i", y, payoff), terms[1])]
    margins = reduce(np.subtract, terms)  # a payoff that is not finite warns here or above
    return _ess_report(margins, points, radius, samples, parallel)


def ess_check(
    candidate: SimplexPoint, f: Landscape, radius: float, samples: int, seed: int
) -> EssReport:
    """Sampled test of evolutionary stability of ``candidate`` under ``f``.

    The margin at a sampled state x is candidate . f(x) - x . f(x); the
    candidate is evolutionarily stable on the sampled neighborhood when no
    margin is definitely negative and at least one is definitely positive.
    """
    return _ess(Replicator(f), candidate, radius, samples, seed)


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
    return _ess(CoupledReplicator(f, g), CoupledState(p_hat, q_hat), radius, samples, seed)


def _sine_to_direction(freqs: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Row-wise sine of the angle between frequency rows and a frequency direction."""
    unit = direction / np.linalg.norm(direction)
    residual = freqs - (freqs @ unit)[:, None] * unit
    return np.linalg.norm(residual, axis=1) / np.linalg.norm(freqs, axis=1)


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
    return _ess(LotkaVolterra(f), candidate, radius, samples, seed)


# ---------------------------------------------------------------------------
# Trajectory monitors
# ---------------------------------------------------------------------------


# a frequency that underflows to 0 is an infinite divergence, as in the run's own diagnostics
@np.errstate(invalid="ignore", divide="ignore")
def lyapunov_monitor(traj: Trajectory, target) -> LyapunovReport:
    """Monitor the kind-appropriate divergence-to-target along a trajectory.

    ``max_increase`` is the largest positive jump between consecutive
    steps (0 when the series never rises); the series is monotone when that
    jump is within MONO_SLACK.  For abundance kinds the report also counts
    states parallel to the target ray occurring before the first converged
    step, the blind spot of the denormalized divergence.
    """
    kind = traj.kind
    t = _target_vector(kind, target, traj.states.shape[1], traj.split)
    rows, t = _frequencies(kind, traj.states, t)
    values = _block_kl(kind, rows, t, traj.split, kl_formula)  # kl_formula as bound at call time
    max_increase = float(np.diff(values).max(initial=0.0))
    initial_value, final_value = float(values[0]), float(values[-1])
    converged_idx = np.nonzero(values <= CONV_TOL)[0]
    parallel_count = None
    if kind.state_type is OrthantPoint:
        cutoff = int(converged_idx[0]) if converged_idx.size else values.size
        parallel_count = int(np.sum(_sine_to_direction(rows, t)[:cutoff] <= PARALLEL_TOL))
    return LyapunovReport(
        monotone=max_increase <= MONO_SLACK,
        max_increase=max_increase,
        initial_value=initial_value,
        final_value=final_value,
        drift=final_value - initial_value,
        converged=final_value <= CONV_TOL,
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
    is estimated by central differences of V = mean fitness / 2, the mean
    fitness and the variance are the run's recorded diagnostics, and the
    largest absolute mismatch over interior steps is returned.
    """
    _require_fisher_kind(traj.kind)
    d = traj.diagnostics
    return _central_residual(traj, "check", 0.5 * d.mean_fitness, d.fitness_variance)


def gradient_consistency_check(
    x: SimplexPoint, potential_grad, probes: int, seed: int
) -> float:
    """Largest defect of the metric-gradient defining property at ``x``.

    For random zero-sum probe directions w the identity
    <grad_g V, w>_x = grad V . w must hold; returns the max absolute
    difference over the probes, NaN when a difference is NaN.
    """
    if not _is_count(probes):
        raise ValueError(f"probes must be a positive integer, got {_shown(probes)}")
    metric_grad = shahshahani_gradient(x, potential_grad).components  # refuses a bad gradient
    grad_vec = np.asarray(potential_grad, dtype=float)
    w = _seeded_rng(seed).standard_normal(out=_draw_array(probes, x.dim, "probes"))  # row by row
    w = w - w.mean(axis=1, keepdims=True)
    # an overflowing gradient gives an inf or NaN defect, silenced as in _central_residual
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lhs = (metric_grad * w / x.coords).sum(axis=-1)  # <grad_g V, w>_x, as inner_product
        rhs = np.matmul(w[:, None, :], grad_vec[:, None])[:, 0, 0]  # np.dot per row
        # a NaN defect (inf - inf) is a NaN residual, which fails every tolerance
        return float(np.maximum.reduce(np.abs(lhs - rhs)))

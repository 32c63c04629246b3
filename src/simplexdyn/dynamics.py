"""Vector fields and fixed-step integration for population dynamics.

Five field kinds share one classical RK4 integrator:

* ``Replicator``              dx_i = x_i (f_i(x) - mean_f(x))      on the simplex
* ``Ecological``              dx_i = x_i g_i(x) with x . g(x) = 0  on the simplex
* ``LotkaVolterra``           dx_i = x_i f_i(x)                    on the orthant
* ``ShiftedLotkaVolterra``    dx_i = (x_i / |x|) f_i(x)            on the orthant
* ``CoupledReplicator``       two replicator populations with payoffs over (p, q)

Simplex states are renormalized (divided by the coordinate sum) after every
step, and any step that drives a coordinate to the positivity floor halts
integration, returning the partial trajectory with ``truncated=True``.

The exponential-family solvers integrate the same flows in log-coordinates
x_i = exp(v_i - G) with dv = f, recomputing the normalizer
G = log sum_j exp(v_j) exactly at every step (it is never integrated).
Both are one RK4 loop in two *charts*: the direct chart records the
integrated coordinates (simplex blocks renormalized), the log chart records
exp(v - G) per population block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

import numpy as np

from .core import (
    SIMPLEX_TOL,
    TANGENT_TOL,
    CoupledState,
    Landscape,
    OrthantPoint,
    SimplexPoint,
    TangentVector,
    evaluate_landscape,
    evaluate_landscape_batch,
)
from .errors import (
    DimensionMismatchError,
    EmptyTrajectoryError,
    KindMismatchError,
    NotSimplexPreservingError,
    StepSizeError,
)

#: Coordinates at or below this value halt integration (positivity loss).
POS_FLOOR = 1e-12
#: Sup-norm tolerance for agreement between the direct integrator and the
#: exponential-family solver on the same flow.
EXPFAM_TOL = 1e-6


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Replicator:
    """Frequency selection dynamics driven by landscape ``f``."""

    f: Landscape


@dataclass(frozen=True, eq=False)
class Ecological:
    """Simplex dynamics dx_i = x_i g_i(x) for an aggregate-neutral payoff g."""

    g: Landscape


@dataclass(frozen=True, eq=False)
class LotkaVolterra:
    """Abundance dynamics dx_i = x_i f_i(x) on the positive orthant."""

    f: Landscape


@dataclass(frozen=True, eq=False)
class ShiftedLotkaVolterra:
    """Abundance dynamics dx_i = (x_i / |x|) f_i(x)."""

    f: Landscape


@dataclass(frozen=True, eq=False)
class CoupledReplicator:
    """Two replicator populations; ``f`` and ``g`` are payoffs over (own, other)."""

    f: Landscape
    g: Landscape


VectorFieldKind = Union[
    Replicator, Ecological, LotkaVolterra, ShiftedLotkaVolterra, CoupledReplicator
]

_SIMPLEX_KINDS = (Replicator, Ecological)
_ORTHANT_KINDS = (LotkaVolterra, ShiftedLotkaVolterra)


# ---------------------------------------------------------------------------
# Public field evaluations
# ---------------------------------------------------------------------------


def replicator_field(x: SimplexPoint, f: Landscape) -> TangentVector:
    """Selection field x_i (f_i(x) - x . f(x)); always tangent to the simplex."""
    return TangentVector(_make_field(Replicator(f))(x.coords))


def ecological_field(x: SimplexPoint, g: Landscape) -> TangentVector:
    """Field x_i g_i(x); requires the aggregate-neutrality x . g(x) = 0."""
    return TangentVector(_make_field(Ecological(g))(x.coords))


def lv_field(x: OrthantPoint, f: Landscape) -> np.ndarray:
    """Abundance growth field x_i f_i(x)."""
    return _make_field(LotkaVolterra(f))(x.coords)


def shifted_lv_field(x: OrthantPoint, f: Landscape) -> np.ndarray:
    """Aggregate-slowed abundance field (x_i / |x|) f_i(x)."""
    return _make_field(ShiftedLotkaVolterra(f))(x.coords)


def coupled_replicator_field(
    state: CoupledState, f: Landscape, g: Landscape
) -> tuple[TangentVector, TangentVector]:
    """Simultaneous selection fields for two interacting populations."""
    split = state.pop1.dim
    dz = _make_field(CoupledReplicator(f, g), split)(state.concatenated())
    return TangentVector(dz[:split]), TangentVector(dz[split:])


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Per-step scalar series recorded alongside a trajectory.

    ``divergence_to_target`` is NaN-filled when no target was supplied.
    ``normalizer`` is present only for exponential-family runs and holds the
    recomputed log-normalizer per step (one column per population).
    """

    mean_fitness: np.ndarray
    fitness_variance: np.ndarray
    divergence_to_target: np.ndarray
    state_total: np.ndarray
    normalizer: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded integration output: times, states, and diagnostics.

    For coupled kinds the states are concatenated ``[p, q]`` rows and
    ``split`` holds the first population's dimension.
    """

    kind: VectorFieldKind
    times: np.ndarray
    states: np.ndarray
    diagnostics: Diagnostics
    split: Optional[int] = None
    truncated: bool = False
    failure: Optional[str] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError(
                f"inconsistent trajectory shapes: times {times.shape}, states {states.shape}"
            )
        if times.size == 0:
            raise EmptyTrajectoryError("trajectory must contain at least one state")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(states > 0.0):
            raise ValueError("all recorded coordinates must be strictly positive")
        if isinstance(self.kind, CoupledReplicator):
            if self.split is None or not (0 < self.split < states.shape[1]):
                raise ValueError("coupled trajectory requires a valid split index")
        if not isinstance(self.kind, _ORTHANT_KINDS):
            for own, _, _ in _blocks(self.kind, self.split):
                if np.max(np.abs(states[:, own].sum(axis=1) - 1.0)) > SIMPLEX_TOL:
                    raise ValueError("simplex trajectory rows must sum to 1 within tolerance")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.times.size

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _rk4_step(field, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = field(y)
    k2 = field(y + 0.5 * dt * k1)
    k3 = field(y + 0.5 * dt * k2)
    k4 = field(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _check_steps(dt: float, steps: int) -> None:
    if not (np.isfinite(dt) and float(dt) > 0.0):
        raise StepSizeError(f"dt must be positive and finite, got {dt}")
    if int(steps) != steps or steps < 1:
        raise StepSizeError(f"steps must be a positive integer, got {steps}")


def logsumexp(v: np.ndarray) -> float:
    """log sum_j exp(v_j), shifted by the largest entry so no term overflows."""
    top = v.max()
    return float(top + np.log(np.exp(v - top).sum()))


def _blocks(kind: VectorFieldKind, split: Optional[int]) -> tuple:
    """One (slice, landscape, other population's slice or None) per population of the state."""
    if isinstance(kind, CoupledReplicator):
        p, q = slice(0, split), slice(split, None)
        return ((p, kind.f, q), (q, kind.g, p))
    if not isinstance(kind, _SIMPLEX_KINDS + _ORTHANT_KINDS):
        raise TypeError(f"unknown field kind: {kind!r}")
    return ((slice(None), kind.g if isinstance(kind, Ecological) else kind.f, None),)


def _make_field(kind: VectorFieldKind, split: Optional[int] = None):
    if isinstance(kind, Replicator):
        f = kind.f

        def field(x):
            fvec = evaluate_landscape(f, x)
            return x * (fvec - np.dot(x, fvec))

        return field
    if isinstance(kind, Ecological):
        g = kind.g

        def field(x):
            gvec = evaluate_landscape(g, x)
            residual = float(np.dot(x, gvec))
            if abs(residual) > TANGENT_TOL:
                raise NotSimplexPreservingError(
                    f"x . g(x) = {residual!r} violates aggregate neutrality"
                )
            return x * gvec

        return field
    if isinstance(kind, LotkaVolterra):
        f = kind.f

        def field(x):
            return x * evaluate_landscape(f, x)

        return field
    if isinstance(kind, ShiftedLotkaVolterra):
        f = kind.f

        def field(x):
            return x * evaluate_landscape(f, x) / x.sum()

        return field
    if isinstance(kind, CoupledReplicator):
        f, g = kind.f, kind.g

        def field(z):
            p = z[:split]
            q = z[split:]
            fvec = evaluate_landscape(f, p, q)
            gvec = evaluate_landscape(g, q, p)
            dp = p * (fvec - np.dot(p, fvec))
            dq = q * (gvec - np.dot(q, gvec))
            return np.concatenate([dp, dq])

        return field
    raise TypeError(f"unknown field kind: {kind!r}")


def _direct_chart(blocks: tuple):
    """Record the integrated coordinates, each simplex block renormalized in place."""

    def chart(y):
        for block in blocks:
            view = y[block]
            view /= view.sum()
        return y, y, None

    return chart


def _log_chart(blocks: tuple):
    """Record exp(v - G) per block, with G = logsumexp(v) recomputed, never integrated."""

    def chart(v):
        big_g = [logsumexp(v[block]) for block in blocks]
        x = np.concatenate([np.exp(v[block] - g) for block, g in zip(blocks, big_g)])
        return x, v, big_g[0] if len(big_g) == 1 else big_g

    return chart


def _log_field(blocks: tuple, chart):
    """dv = f(x) at the chart's state x = exp(v - G): the replicator flow in log coordinates."""

    def field(v):
        x = chart(v)[0]
        return np.concatenate(
            [evaluate_landscape(land, x[own], None if other is None else x[other])
             for own, land, other in blocks]
        )

    return field


def _state_vector(kind: VectorFieldKind, state, role: str) -> tuple[np.ndarray, Optional[int]]:
    """A copy of ``state`` as one vector, and the split index of a coupled state."""
    if isinstance(kind, _SIMPLEX_KINDS):
        state_type = SimplexPoint
    elif isinstance(kind, _ORTHANT_KINDS):
        state_type = OrthantPoint
    elif isinstance(kind, CoupledReplicator):
        state_type = CoupledState
    else:
        raise TypeError(f"unknown field kind: {kind!r}")
    if not isinstance(state, state_type):
        raise KindMismatchError(f"{type(kind).__name__} requires a {state_type.__name__} {role}")
    if state_type is CoupledState:
        return state.concatenated(), state.pop1.dim
    return state.coords.copy(), None


def _target_vector(kind: VectorFieldKind, target, size: int, split: Optional[int]) -> np.ndarray:
    """``target`` as one vector, checked against states of ``size`` coordinates and ``split``."""
    vector, target_split = _state_vector(kind, target, "target")
    if (vector.size, target_split) != (size, split):
        raise DimensionMismatchError("target dimensions do not match the state dimensions")
    return vector


def _frequencies(kind: VectorFieldKind, states: np.ndarray, target: Optional[np.ndarray]):
    """Rows and target as population frequencies: abundance kinds divide each by its total."""
    if isinstance(kind, _ORTHANT_KINDS):
        states = states / states.sum(axis=1)[:, None]
        target = None if target is None else target / target.sum()
    return states, target


def _kl_rows(target: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vectorized D(target || row) over trajectory rows, floored at zero."""
    const = float(np.dot(target, np.log(target)))
    values = const - np.log(rows) @ target
    return np.maximum(values, 0.0)


def _diagnostics(
    kind: VectorFieldKind,
    states: np.ndarray,
    target: Optional[np.ndarray],
    split: Optional[int],
    normalizer: Optional[np.ndarray] = None,
) -> Diagnostics:
    """Mean fitness, variance and divergence to ``target``, each summed over population blocks."""
    weights, target = _frequencies(kind, states, target)
    means, variances, divergences = [], [], []
    for own, land, other in _blocks(kind, split):
        payoff = evaluate_landscape_batch(
            land, states[:, own], None if other is None else states[:, other]
        )
        w = weights[:, own]
        mean = np.einsum("ij,ij->i", w, payoff)
        means.append(mean)
        variances.append(np.einsum("ij,ij->i", w, (payoff - mean[:, None]) ** 2))
        if target is not None:
            divergences.append(_kl_rows(target[own], w))
    # reduce keeps one block's bits (np.sum would turn a -0.0 into 0.0)
    div = reduce(np.add, divergences) if divergences else np.full(states.shape[0], np.nan)
    mean, var = reduce(np.add, means), reduce(np.add, variances)
    return Diagnostics(mean, var, div, states.sum(axis=1), normalizer)


def _run(kind: VectorFieldKind, x0, dt: float, steps: int, target, log: bool) -> Trajectory:
    """The RK4 loop shared by every integrator, in direct or log coordinates.

    A chart maps an RK4 result to (recorded state, coordinates to continue
    from, normalizers); the direct chart may renormalize its argument in
    place.  The first recorded row is the start state exactly as given.  A
    step whose recorded state has a coordinate at or below POS_FLOOR (or a
    non-finite one) halts the run; the overflow, invalid-value and
    divide-by-zero warnings of such a blow-up, in the loop and in the
    diagnostics of the rows before it, are silenced.
    """
    _check_steps(dt, steps)
    start, split = _state_vector(kind, x0, "start")
    if target is not None:
        target = _target_vector(kind, target, start.size, split)
    blocks = _blocks(kind, split)
    simplex = () if isinstance(kind, _ORTHANT_KINDS) else tuple(own for own, _, _ in blocks)
    if log:
        chart = _log_chart(simplex)
        y, field = np.log(start), _log_field(blocks, chart)
    else:
        chart = _direct_chart(simplex)
        y, field = start, _make_field(kind, split)
    states = [start]
    normalizers = [chart(y.copy())[2]]
    truncated = False
    failure = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(int(steps)):
            x, y, big_g = chart(_rk4_step(field, y, dt))
            if not (x.min() > POS_FLOOR and x.max() < np.inf):
                truncated = True
                failure = f"positivity lost at step {k + 1} (t = {(k + 1) * dt:g})"
                break
            states.append(x)
            normalizers.append(big_g)
        states = np.array(states)
        normalizer = None if normalizers[0] is None else np.array(normalizers)
        diagnostics = _diagnostics(kind, states, target, split, normalizer)
    return Trajectory(
        kind=kind,
        times=dt * np.arange(states.shape[0]),
        states=states,
        diagnostics=diagnostics,
        split=split,
        truncated=truncated,
        failure=failure,
    )


def integrate(
    kind: VectorFieldKind,
    x0,
    dt: float,
    steps: int,
    target=None,
) -> Trajectory:
    """Integrate a field with classical fixed-step RK4.

    Simplex-valued kinds are renormalized after every step.  If a step
    drives any coordinate to POS_FLOOR or below (or to a non-finite value),
    integration halts and the partial trajectory is returned with
    ``truncated=True`` and a failure message; no exception is raised for
    positivity loss.  The optional target feeds the divergence column of the
    diagnostics and must match the kind's state type.
    """
    return _run(kind, x0, dt, steps, target, log=False)


# ---------------------------------------------------------------------------
# Exponential-family solvers
# ---------------------------------------------------------------------------


def exp_family_solver(
    f: Landscape, x0: SimplexPoint, dt: float, steps: int, target: Optional[SimplexPoint] = None
) -> Trajectory:
    """Integrate the replicator flow in exponential coordinates.

    Writes x_i = exp(v_i - G) and advances dv = f(x) with RK4, recomputing
    G = log sum_j exp(v_j) exactly at every step; G is never integrated.
    The recomputed normalizer is recorded per step in the diagnostics, so
    the identity dG/dt = mean fitness can be checked externally by finite
    differences.
    """
    return _run(Replicator(f), x0, dt, steps, target, log=True)


def coupled_exp_family_solver(
    f: Landscape,
    g: Landscape,
    state0: CoupledState,
    dt: float,
    steps: int,
    target: Optional[CoupledState] = None,
) -> Trajectory:
    """Exponential-coordinate integration of two coupled replicator populations.

    Each population carries its own normalizer; both are recomputed from the
    log-coordinates at every step and recorded as the two columns of the
    diagnostics normalizer array.
    """
    return _run(CoupledReplicator(f, g), state0, dt, steps, target, log=True)


# ---------------------------------------------------------------------------
# Trajectory transforms and residuals
# ---------------------------------------------------------------------------


def normalize_lv_trajectory(traj: Trajectory) -> Trajectory:
    """Pointwise normalization y(t) = x(t) / |x(t)| of an abundance trajectory.

    The returned trajectory keeps the original kind and time stamps; its
    states are the frequency vectors, and the state-total diagnostic becomes
    identically 1.
    """
    if not isinstance(traj.kind, _ORTHANT_KINDS):
        raise KindMismatchError(
            f"normalization applies to abundance trajectories, got {type(traj.kind).__name__}"
        )
    if len(traj) == 0:
        raise EmptyTrajectoryError("cannot normalize an empty trajectory")
    freqs = _frequencies(traj.kind, traj.states, None)[0]
    d = traj.diagnostics
    diagnostics = Diagnostics(
        mean_fitness=d.mean_fitness.copy(),
        fitness_variance=d.fitness_variance.copy(),
        divergence_to_target=d.divergence_to_target.copy(),
        state_total=freqs.sum(axis=1),
        normalizer=None if d.normalizer is None else d.normalizer.copy(),
    )
    return Trajectory(
        kind=traj.kind,
        times=traj.times.copy(),
        states=freqs,
        diagnostics=diagnostics,
        split=traj.split,
        truncated=traj.truncated,
        failure=traj.failure,
    )


def _uniform_step(traj: Trajectory, use: str) -> float:
    """Step of a trajectory's time grid, for central differences over >= 3 states."""
    if len(traj) < 3:
        raise EmptyTrajectoryError("need at least 3 states for a central difference")
    dt = float(traj.times[-1] - traj.times[0]) / (len(traj) - 1)
    # dt * arange grids carry rounding up to eps * t_max in each spacing
    slack = 32.0 * np.finfo(float).eps * max(1.0, abs(float(traj.times[-1])))
    if np.max(np.abs(np.diff(traj.times) - dt)) > slack:
        raise ValueError(f"{use} requires a uniform time grid")
    return dt


def lv_correspondence_residual(traj: Trajectory) -> float:
    """Defect of the normalized abundance flow against replicator form.

    For y = x / |x| the normalization of dx_i = x_i f_i(x) satisfies
    dy_i = y_i (g_i - y . g) with g_i(y) = f_i(x) evaluated at the stored
    abundance state of the same time stamp (ShiftedLotkaVolterra obeys the
    same identity up to the 1/|x| time change, which is applied here).
    Returns the max-norm residual between central-difference dy/dt and that
    right-hand side over interior time steps.
    """
    if not isinstance(traj.kind, _ORTHANT_KINDS):
        raise KindMismatchError(
            f"correspondence residual applies to abundance trajectories, got {type(traj.kind).__name__}"
        )
    dt = _uniform_step(traj, "correspondence residual")
    totals = traj.states.sum(axis=1)
    freqs = traj.states / totals[:, None]
    payoff = evaluate_landscape_batch(traj.kind.f, traj.states)
    if isinstance(traj.kind, ShiftedLotkaVolterra):
        payoff = payoff / totals[:, None]
    mean = np.einsum("ij,ij->i", freqs, payoff)
    rhs = freqs * (payoff - mean[:, None])
    dy = (freqs[2:] - freqs[:-2]) / (2.0 * dt)
    return float(np.max(np.abs(dy - rhs[1:-1])))


#: Reference segments per bounding box in ``orbit_gap``, and queries per batch.
_GAP_BLOCK = 32


def orbit_gap(states: np.ndarray, reference: np.ndarray, stride: int = 1) -> float:
    """Largest distance from ``states`` rows to the polyline through ``reference``.

    A one-directional Hausdorff-style gap: each queried state is matched to
    the nearest point on any segment of the reference path, which makes the
    measure insensitive to time reparameterization.

    Segments are grouped in blocks of ``_GAP_BLOCK`` with a coordinate box
    each.  A batch of queries evaluates the segments of its nearest box, then
    every block whose box lies within that bound plus a rounding margin, so
    the segment attaining each minimum is always evaluated, with the same
    per-segment formula.  Inputs that are not finite or exceed 1e100 in
    magnitude skip the pruning.
    """
    states = np.asarray(states, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if reference.shape[0] < 2:
        raise EmptyTrajectoryError("reference path needs at least 2 states")
    p0 = reference[:-1]
    seg = reference[1:] - p0
    seg_sq = np.einsum("ij,ij->i", seg, seg)
    seg_sq = np.where(seg_sq == 0.0, 1.0, seg_sq)
    count, n = p0.shape
    starts = np.arange(0, count, _GAP_BLOCK)
    ends = np.minimum(starts + _GAP_BLOCK, count)
    lo = np.minimum(np.minimum.reduceat(p0, starts), reference[ends])
    hi = np.maximum(np.maximum.reduceat(p0, starts), reference[ends])
    # the last block repeats its last segment, which leaves every minimum as it is
    members = np.minimum(starts[:, None] + np.arange(_GAP_BLOCK), count - 1)

    def block_gaps(q: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Squared distance from each row of ``q`` to the nearest segment of its block."""
        idx = members[blocks].ravel()
        rows = np.repeat(q, _GAP_BLOCK, axis=0)
        t = np.clip(((rows - p0[idx]) * seg[idx]).sum(axis=1) / seg_sq[idx], 0.0, 1.0)
        closest = p0[idx] + t[:, None] * seg[idx]
        return ((rows - closest) ** 2).sum(axis=1).reshape(-1, _GAP_BLOCK).min(axis=1)

    queries = states[::stride]
    prune = bool(np.all(np.abs(reference) <= 1e100) and np.all(np.abs(queries) <= 1e100))
    # Rounding moves a box distance and a segment distance by a relative n * eps and the
    # computed closest point off its segment by 7 eps * max|reference| per coordinate; the
    # margin bounds both with room (the absolute term also covers subnormal results).
    scale = float(np.abs(reference).max()) if prune else 0.0
    slack = n * (1e-20 * scale * scale + 1e-300)
    minima = np.empty(len(queries))
    for first in range(0, len(queries), _GAP_BLOCK):
        q = queries[first : first + _GAP_BLOCK]
        gap = lo - q[:, None]
        np.maximum(gap, q[:, None] - hi, out=gap)
        np.maximum(gap, 0.0, out=gap)
        box = np.einsum("ijk,ijk->ij", gap, gap)
        near = box.argmin(axis=1)
        best = block_gaps(q, near)
        if prune:
            visit = box <= (best * (1.0 + 1e-6) + slack)[:, None]
        else:
            visit = np.ones(box.shape, dtype=bool)
        visit[np.arange(len(q)), near] = False
        rows, blocks = np.nonzero(visit)
        step = max(len(starts), _GAP_BLOCK)  # pairs per pass: temporaries stay near (count, n)
        for i in range(0, rows.size, step):
            part = slice(i, i + step)
            np.minimum.at(best, rows[part], block_gaps(q[rows[part]], blocks[part]))
        minima[first : first + len(q)] = best
    # fmax skips a NaN distance, as a running max() does
    return float(np.sqrt(np.fmax.reduce(minima, initial=0.0)))

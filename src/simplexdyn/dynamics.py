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

from dataclasses import dataclass, replace
from functools import partial, reduce
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
    _beyond_rounding,
    _is_count,
    _is_positive,
    _is_real,
    _per_total,
    _shown,
    _tangent,
    evaluate_landscape,
    evaluate_landscape_batch,
    resolve_payoff,
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

    state_type = SimplexPoint
    f: Landscape


@dataclass(frozen=True, eq=False)
class Ecological:
    """Simplex dynamics dx_i = x_i g_i(x) for an aggregate-neutral payoff g."""

    state_type = SimplexPoint
    g: Landscape


@dataclass(frozen=True, eq=False)
class LotkaVolterra:
    """Abundance dynamics dx_i = x_i f_i(x) on the positive orthant."""

    state_type = OrthantPoint
    f: Landscape


@dataclass(frozen=True, eq=False)
class ShiftedLotkaVolterra:
    """Abundance dynamics dx_i = (x_i / |x|) f_i(x)."""

    state_type = OrthantPoint
    f: Landscape


@dataclass(frozen=True, eq=False)
class CoupledReplicator:
    """Two replicator populations; ``f`` and ``g`` are payoffs over (own, other)."""

    state_type = CoupledState
    f: Landscape
    g: Landscape


_KINDS = (Replicator, Ecological, LotkaVolterra, ShiftedLotkaVolterra, CoupledReplicator)
VectorFieldKind = Union[_KINDS]


def _state_type(kind) -> type:
    """The state type ``kind`` declares: SimplexPoint, OrthantPoint or CoupledState."""
    if not isinstance(kind, _KINDS):  # a tuple tests faster than the Union
        raise TypeError(f"unknown field kind: {kind!r}")
    return kind.state_type


# ---------------------------------------------------------------------------
# Public field evaluations
# ---------------------------------------------------------------------------


def _field_at(kind: VectorFieldKind, state) -> tuple:
    """(z, the field of ``kind`` at the state vector z, split): one ``_state_vector`` read."""
    z, split = _state_vector(kind, state, "state")
    return z, _make_field(kind, z.size, split)(z, np.empty(z.size)), split


def _tangents(kind: VectorFieldKind, state) -> list:
    """The field of a simplex ``kind`` at ``state``: one ``core._tangent`` per population block."""
    z, dz, split = _field_at(kind, state)
    return [_tangent(dz[own], z[own], partial(evaluate_landscape, land, z[own],
                                              None if other is None else z[other]))
            for own, land, other in _blocks(kind, split)]


def replicator_field(x: SimplexPoint, f: Landscape) -> TangentVector:
    """Selection field x_i (f_i(x) - x . f(x)); always tangent to the simplex."""
    return _tangents(Replicator(f), x)[0]


def ecological_field(x: SimplexPoint, g: Landscape) -> TangentVector:
    """Field x_i g_i(x); requires the aggregate-neutrality x . g(x) = 0."""
    return _tangents(Ecological(g), x)[0]


def lv_field(x: OrthantPoint, f: Landscape) -> np.ndarray:
    """Abundance growth field x_i f_i(x)."""
    return _field_at(LotkaVolterra(f), x)[1]


def shifted_lv_field(x: OrthantPoint, f: Landscape) -> np.ndarray:
    """Aggregate-slowed abundance field (x_i / |x|) f_i(x)."""
    return _field_at(ShiftedLotkaVolterra(f), x)[1]


def coupled_replicator_field(
    state: CoupledState, f: Landscape, g: Landscape
) -> tuple[TangentVector, TangentVector]:
    """Simultaneous selection fields for two interacting populations."""
    return tuple(_tangents(CoupledReplicator(f, g), state))


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

    def __post_init__(self):
        for name, series in self._series():
            object.__setattr__(self, name, np.asarray(series, dtype=float))

    def _series(self) -> list:
        """(name, series) of each series held: ``normalizer`` only if present."""
        return [(name, series) for name, series in vars(self).items() if series is not None]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded integration output: times, states, and diagnostics.

    For coupled kinds the states are concatenated ``[p, q]`` rows and ``split`` holds the
    first population's dimension, a count below the row length; other kinds have no split.
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
        if _state_type(self.kind) is CoupledState:
            if not (_is_count(self.split) and self.split < states.shape[1]):
                raise ValueError("coupled trajectory requires a valid split index")
        elif self.split is not None:
            raise ValueError(f"a {type(self.kind).__name__} trajectory takes no split, "
                             f"got split = {_shown(self.split, repr)}")
        if _off_simplex(self.kind, states, self.split).size:
            raise ValueError("simplex trajectory rows must sum to 1 within tolerance")
        rows = times.size
        for name, series in self.diagnostics._series():
            ndim = 2 if name == "normalizer" else 1  # a normalizer may hold a column per population
            if series.shape[:1] != (rows,) or series.ndim > ndim:
                expected = f"({rows},)" + (f" or ({rows}, k)" if ndim == 2 else "")
                raise ValueError(f"diagnostics {name} has shape {series.shape}, expected {expected}")
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


def _off_simplex(kind: VectorFieldKind, states: np.ndarray, split: Optional[int]) -> np.ndarray:
    """Indices of the rows with a simplex block whose sum is off 1 by more than SIMPLEX_TOL."""
    blocks = () if kind.state_type is OrthantPoint else _blocks(kind, split)
    off = [np.abs(states[:, own].sum(axis=1) - 1.0) > SIMPLEX_TOL for own, _, _ in blocks]
    return np.flatnonzero(reduce(np.logical_or, off, np.zeros(len(states), dtype=bool)))


def _rk4_step(field, y: np.ndarray, weights: tuple, work: tuple, out: np.ndarray,
              add=np.add, multiply=np.multiply) -> np.ndarray:
    """One RK4 step from ``y`` into ``out``, with the stage fields and sums in ``work``.

    ``work`` holds four field buffers and ``scratch``: ``weight * k``, then the stage input
    ``y + weight * k`` over it, so a step makes no array (a ``Custom`` evaluator gets a copy).
    """
    half, whole, sixth = weights
    k1, k2, k3, k4, scratch = work
    field(y, k1)
    field(add(y, multiply(half, k1, scratch), scratch), k2)
    field(add(y, multiply(half, k2, scratch), scratch), k3)
    field(add(y, multiply(whole, k3, scratch), scratch), k4)
    s = add(k2, k3, k2)  # s + s is 2.0 * s exactly
    add(k1, add(s, s, s), k1)
    return add(y, multiply(sixth, add(k1, k4, k1), k1), out)


def _positive(x: np.ndarray) -> bool:
    """True when every coordinate of ``x`` is above POS_FLOOR and below +inf; a NaN is not."""
    v = x.tolist()
    total = sum(v)  # NaN when a coordinate is; Python floats overflow to inf without a warning
    return POS_FLOOR < min(v) and max(v) < np.inf and total == total


def _check_steps(dt: float, steps: int) -> None:
    if not _is_positive(dt):
        raise StepSizeError(f"dt must be positive and finite, got {_shown(dt)}")
    if not _is_count(steps):
        raise StepSizeError(f"steps must be a positive integer, got {_shown(steps)}")
    # the last time as the recorded grid computes it; a count past float range has no float time
    if not (_is_real(steps) and float(dt) * float(steps) < np.inf):
        raise StepSizeError(f"dt * steps must be a finite time, got dt = {_shown(dt)}, "
                            f"steps = {_shown(steps)}")


def logsumexp(v: np.ndarray) -> float:
    """log sum_j exp(v_j), shifted by the largest entry so no term overflows."""
    top = np.maximum.reduce(v)
    return float(top + np.log(np.add.reduce(np.exp(v - top))))


def _blocks(kind: VectorFieldKind, split: Optional[int]) -> tuple:
    """One (slice, landscape, other population's slice or None) per population of the state."""
    if _state_type(kind) is CoupledState:
        p, q = slice(0, split), slice(split, None)
        return ((p, kind.f, q), (q, kind.g, p))
    return ((slice(None), kind.g if isinstance(kind, Ecological) else kind.f, None),)


def _payoffs(kind: VectorFieldKind, size: int, split: Optional[int]):
    """Each block's payoff in block order, resolved for states of ``size`` coordinates.

    A generator of pay(own[, other]): each block is resolved, and may be refused, only when it
    is taken.  A ``Custom`` landscape goes through this module's ``evaluate_landscape``.
    """
    n = range(size)
    return (resolve_payoff(land, len(n[own]), None if other is None else len(n[other]),
                           evaluate_landscape) for own, land, other in _blocks(kind, split))


def _block_payoffs(kind: VectorFieldKind, rows: np.ndarray, split: Optional[int]) -> list:
    """Each population block's (slice, payoff rows) at the state ``rows``: one evaluation each."""
    return [(own, evaluate_landscape_batch(land, rows[:, own],
                                           None if other is None else rows[:, other]))
            for own, land, other in _blocks(kind, split)]


def _block_terms(kind: VectorFieldKind, size: int, split: Optional[int]) -> list:
    """Each block's (own slice, other slice, payoff, payoff buffer), by the fields' one rule.

    The first block's payoff goes into its view of ``out``, aligned as ``out`` is (buffer None);
    a later block's into an array of its own: OpenBLAS Prescott's dot rounds by operand alignment.
    """
    n = range(size)
    return [(own, other, pay, np.empty(len(n[own])) if k else None) for k, ((own, _, other), pay)
            in enumerate(zip(_blocks(kind, split), _payoffs(kind, size, split)))]


def _make_field(kind: VectorFieldKind, size: int, split: Optional[int]):
    """The field of ``kind`` on states of ``size`` coordinates (``split`` for coupled kinds).

    The field is ``field(x, out)``: it writes the field at ``x`` into ``out``, an array the
    package owns and shaped like ``x``, and returns ``out``.  It writes into no other array
    but its payoff buffers, by ``_block_terms``' rule, and a ``Custom`` payoff's array is read.
    """
    terms = _block_terms(kind, size, split)
    pay = terms[0][2]
    multiply, subtract = np.multiply, np.subtract
    if isinstance(kind, LotkaVolterra):
        return lambda x, out: multiply(x, pay(x, out), out)
    if isinstance(kind, ShiftedLotkaVolterra):
        total, reduce_add, divide = np.empty(()), np.add.reduce, np.divide
        return lambda x, out: divide(multiply(x, pay(x, out), out), reduce_add(x, 0, None, total),
                                     out)
    if isinstance(kind, Ecological):

        def field(x, out):
            g = pay(x, out)
            residual = float(x.dot(g))
            # x * g only past the absolute test; a blown-up stage rounds x . g at its terms' size
            if abs(residual) > TANGENT_TOL and _beyond_rounding(residual, x * g):
                raise NotSimplexPreservingError(
                    f"x . g(x) = {residual!r} violates aggregate neutrality"
                )
            return multiply(x, g, out)

    elif isinstance(kind, Replicator):
        mean = np.empty(())

        def field(x, out):
            f = pay(x, out)
            x.dot(f, mean)
            return multiply(x, subtract(f, mean, out), out)

    else:
        terms = [(*term, np.empty(())) for term in terms]  # each block's 0-d mean

        def field(z, out):
            for own, other, pay, buf, mean in terms:
                x, dx = z[own], out[own]
                f = pay(x, z[other], dx if buf is None else buf)
                x.dot(f, mean)
                multiply(x, subtract(f, mean, dx), dx)
            return out

    return field


def _direct_coordinates(kind: VectorFieldKind, start, split: Optional[int], blocks: tuple):
    """(y0, chart, field, None): the chart renormalizes its row's simplex blocks in place.

    One population's chart divides the whole row by its sum, with no block view.
    """
    total, divide, reduce_add = np.empty(()), np.divide, np.add.reduce

    def chart(row):
        for block in blocks:
            view = row[block]
            view /= np.add.reduce(view, out=total)
        return row

    if blocks == (slice(None),):
        chart = lambda row: divide(row, reduce_add(row, None, None, total), row)  # noqa: E731
    return start, chart, _make_field(kind, start.size, split), None


def _block_chart(v: np.ndarray) -> np.ndarray:
    """One population's x = exp(v - G), with G = logsumexp(v)."""
    return np.exp(v - logsumexp(v))


def _log_coordinates(kind: VectorFieldKind, start, split: Optional[int], blocks: tuple):
    """(v0, chart, field, normalizers) in coordinates x = exp(v - G) with dv = f(x).

    The chart copies its row, the step's new v, into the one ``v`` it owns, writes exp(v - G)
    per block over the row, appends G = logsumexp(v), recomputed, never integrated (one G per
    block for two populations), and returns ``v``; the start is charted first.  The field keeps
    ``_make_field``'s contract and buffer rule, and reads x from the last chart when ``y is v``.
    """
    terms = _block_terms(kind, start.size, split)
    pay = terms[0][2]
    exp, subtract = np.exp, np.subtract
    v, normalizers, last_x = np.empty(start.size), [], None

    def chart(row):
        nonlocal last_x
        v[...], last_x = row, [row[block] for block in blocks]
        big_g = [logsumexp(v[block]) for block in blocks]
        for block, g, x in zip(blocks, big_g, last_x):
            exp(subtract(v[block], g, x), x)
        normalizers.append(big_g if len(blocks) > 1 else big_g[0])
        return v

    if len(terms) == 1:

        def field(y, out):
            f = pay(last_x[0] if y is v else _block_chart(y), out)
            if f is not out:  # a Custom payoff returns its own array
                out[...] = f
            return out

    else:  # each block's x is xs[k] and its other population's x is xs[j]
        terms = [(own, pay, buf, k, blocks.index(o)) for k, (own, o, pay, buf) in enumerate(terms)]

        def field(y, out):
            xs = last_x if y is v else [_block_chart(y[own]) for own in blocks]
            for own, pay, buf, k, j in terms:
                f = pay(xs[k], xs[j], out[own] if buf is None else buf)
                if f.base is not out:  # a later block's buffer, or a Custom payoff's own array
                    out[own] = f
            return out

    # charting log(x0) in a scratch array sets v to v0 and makes G0 the first normalizer
    return chart(np.log(start)), chart, field, normalizers


def _state_vector(kind: VectorFieldKind, state, role: str) -> tuple[np.ndarray, Optional[int]]:
    """A copy of ``state`` as one vector, and the split index of a coupled state."""
    state_type = _state_type(kind)
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
    if kind.state_type is OrthantPoint:
        states = _per_total(states)
        target = None if target is None else _per_total(target)
    return states, target


def _kl_rows(target: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Vectorized D(target || row) over trajectory rows, floored at zero."""
    const = float(np.dot(target, np.log(target)))
    values = const - np.log(rows) @ target
    return np.maximum(values, 0.0)


def _block_kl(kind: VectorFieldKind, rows: np.ndarray, target: np.ndarray, split, kl) -> np.ndarray:
    """Each frequency row's ``kl(target block, row block)``, floored at 0, summed over blocks."""
    # reduce keeps one block's bits (np.sum would turn a -0.0 into 0.0)
    return reduce(np.add, [np.maximum(kl(target[own], rows[:, own]), 0.0)
                           for own, _, _ in _blocks(kind, split)])


def _diagnostics(
    kind: VectorFieldKind,
    states: np.ndarray,
    target: Optional[np.ndarray],
    split: Optional[int],
    normalizer: Optional[np.ndarray] = None,
) -> Diagnostics:
    """Mean fitness, variance and divergence to ``target``, each summed over population blocks."""
    weights, target = _frequencies(kind, states, target)
    means, variances = [], []
    for own, payoff in _block_payoffs(kind, states, split):
        w = weights[:, own]
        mean = np.einsum("ij,ij->i", w, payoff)
        means.append(mean)
        variances.append(np.einsum("ij,ij->i", w, (payoff - mean[:, None]) ** 2))
    div = (np.full(states.shape[0], np.nan) if target is None
           else _block_kl(kind, weights, target, split, _kl_rows))
    mean, var = reduce(np.add, means), reduce(np.add, variances)
    return Diagnostics(mean, var, div, states.sum(axis=1), normalizer)


#: Rows of a run's first record; a longer run doubles it, up to its steps + 1 rows.
_RECORD_CHUNK = 1024


def _run(kind: VectorFieldKind, x0, dt: float, steps: int, target, coordinates) -> Trajectory:
    """The RK4 loop shared by every integrator, in the ``coordinates`` a factory sets up.

    Each RK4 step writes its result into its row of the record, and the chart makes that row
    the recorded state and returns the state the next step starts from: the direct chart
    renormalizes the row in place and returns it, and the log chart keeps the row's v, writes
    exp(v - G) over it and appends its normalizers.  The first recorded row is the start state
    exactly as given.  A step whose recorded state has a coordinate that is at or below
    POS_FLOOR, NaN or +inf halts the run (``_positive``); the overflow, invalid-value and
    divide-by-zero warnings of such a blow-up, in the loop and in the diagnostics of the rows
    before it, are silenced.  A run whose factory returns normalizers records them, and halts
    at its first recorded row that is off the simplex, naming the normalizer.  The work buffers
    hold the stage fields, inputs and sums of every step.  No row is written after its step, and
    a run that halts keeps a copy of the rows before its failure, not the whole record.
    """
    _check_steps(dt, steps)
    start, split = _state_vector(kind, x0, "start")
    if target is not None:
        target = _target_vector(kind, target, start.size, split)
    simplex = (() if kind.state_type is OrthantPoint
               else tuple(own for own, _, _ in _blocks(kind, split)))
    size, rows = start.size, int(steps) + 1
    y, chart, field, normalizers = coordinates(kind, start, split, simplex)
    record, done, failure = np.empty((min(rows, _RECORD_CHUNK), size)), rows, None
    record[0] = start
    # a ufunc takes a 0-d float64 operand faster than a Python float, with the same bits
    weights = tuple(np.array(w, dtype=float) for w in (0.5 * dt, dt, dt / 6.0))
    work = tuple(np.empty(size) for _ in range(5))
    step = float(dt)  # the recorded times, and each failure's t, are those of the float run
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, rows):
            if k == len(record):  # untouched rows of np.empty take no memory until written
                record, filled = np.empty((min(2 * k, rows), size)), record
                record[:k] = filled
            row = record[k]
            y = chart(_rk4_step(field, y, weights, work, row))
            if not _positive(row):
                done, failure = k, f"positivity lost at step {k} (t = {step * k:g})"
                break
        # a direct run renormalizes every row; exp(v - G) rounds at the size of G
        off = () if normalizers is None else _off_simplex(kind, record[:done], split)
        if len(off):
            done = int(off[0])
            failure = (f"normalizer G = {normalizers[done]} rounds exp(v - G) off the simplex "
                       f"at step {done} (t = {step * done:g})")
        normalizer = None if normalizers is None else np.array(normalizers[:done])
        states = record if done == len(record) else record[:done].copy()
        diagnostics = _diagnostics(kind, states, target, split, normalizer)
    return Trajectory(
        kind=kind,
        times=step * np.arange(done),
        states=states,
        diagnostics=diagnostics,
        split=split,
        truncated=failure is not None,
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
    return _run(kind, x0, dt, steps, target, _direct_coordinates)


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
    return _run(Replicator(f), x0, dt, steps, target, _log_coordinates)


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
    return _run(CoupledReplicator(f, g), state0, dt, steps, target, _log_coordinates)


# ---------------------------------------------------------------------------
# Trajectory transforms and residuals
# ---------------------------------------------------------------------------


def _abundance_frequencies(traj: Trajectory, use: str) -> np.ndarray:
    """The frequency rows of an abundance trajectory; any other kind is refused for ``use``."""
    if traj.kind.state_type is not OrthantPoint:
        raise KindMismatchError(f"{use} applies to abundance trajectories, "
                                f"got {type(traj.kind).__name__}")
    return _frequencies(traj.kind, traj.states, None)[0]


def normalize_lv_trajectory(traj: Trajectory) -> Trajectory:
    """Pointwise normalization y(t) = x(t) / |x(t)| of an abundance trajectory.

    The returned trajectory keeps the original kind and time stamps; its
    states are the frequency vectors, and the state-total diagnostic becomes
    identically 1.  Every other field is the input's own: its arrays are
    shared, not copied.
    """
    freqs = _abundance_frequencies(traj, "normalization")
    diagnostics = replace(traj.diagnostics, state_total=freqs.sum(axis=1))
    return replace(traj, states=freqs, diagnostics=diagnostics)


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _central_residual(traj: Trajectory, use: str, series: np.ndarray, rhs: np.ndarray) -> float:
    """Max |central-difference d(series)/dt - rhs| over interior steps, NaN or inf quietly."""
    dt = _uniform_step(traj, use)
    return float(np.max(np.abs((series[2:] - series[:-2]) / (2.0 * dt) - rhs[1:-1])))


def lv_correspondence_residual(traj: Trajectory) -> float:
    """Defect of the normalized abundance flow against replicator form.

    For y = x / |x| the normalization of dx_i = x_i f_i(x) satisfies
    dy_i = y_i (g_i - y . g) with g_i(y) = f_i(x) evaluated at the stored
    abundance state of the same time stamp (ShiftedLotkaVolterra obeys the
    same identity up to the 1/|x| time change, which is applied here).
    Returns the max-norm residual between central-difference dy/dt and that
    right-hand side over interior time steps.
    """
    freqs = _abundance_frequencies(traj, "correspondence residual")
    ((_, payoff),) = _block_payoffs(traj.kind, traj.states, traj.split)
    if isinstance(traj.kind, ShiftedLotkaVolterra):
        payoff = payoff / traj.states.sum(axis=1)[:, None]
    mean = np.einsum("ij,ij->i", freqs, payoff)
    rhs = freqs * (payoff - mean[:, None])
    return _central_residual(traj, "correspondence residual", freqs, rhs)


#: Reference segments per bounding box in ``orbit_gap``, and queries per batch.
_GAP_BLOCK = 32


# a blown-up row overflows or turns NaN in the distances, silenced as in the run that recorded it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def orbit_gap(states: np.ndarray, reference: np.ndarray) -> float:
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
    if states.ndim != 2 or reference.ndim != 2 or states.shape[1] != reference.shape[1]:
        raise DimensionMismatchError(f"states of shape {states.shape} and reference of shape "
                                     f"{reference.shape} are not rows of one dimension")
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

    prune = bool(np.all(np.abs(reference) <= 1e100) and np.all(np.abs(states) <= 1e100))
    # Rounding moves a box distance and a segment distance by a relative n * eps and the
    # computed closest point off its segment by 7 eps * max|reference| per coordinate; the
    # margin bounds both with room (the absolute term also covers subnormal results).
    scale = float(np.abs(reference).max()) if prune else 0.0
    slack = n * (1e-20 * scale * scale + 1e-300)
    minima = np.empty(len(states))
    for first in range(0, len(states), _GAP_BLOCK):
        q = states[first : first + _GAP_BLOCK]
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

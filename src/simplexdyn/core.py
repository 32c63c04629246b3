"""State types, fitness landscapes, and elementary population statistics.

The interior of the probability simplex is the state space for frequency
dynamics; the positive orthant carries non-normalized abundances.  All types
here are immutable value objects and every operation is a pure function, so
values can be shared freely across threads or processes.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    EvaluationFailure,
    LandscapeValueError,
    NonPositiveTauError,
    NotInteriorError,
    NotNormalizedError,
    NotTangentError,
)

#: Absolute tolerance on the coordinate sum of a simplex point.
SIMPLEX_TOL = 1e-9
#: Absolute tolerance on the component sum of a tangent vector.
TANGENT_TOL = 1e-9


def _is_real(value) -> bool:
    """True for a real number float64 holds (inf and NaN too); not a bool, a string or 10**400."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (isinstance(value, (float, np.floating)) or abs(value) <= sys.float_info.max))


def _is_positive(value) -> bool:
    """True for a finite real number > 0: a step, a radius, a level or a factor."""
    return _is_real(value) and 0.0 < value < np.inf


def _is_count(value, least: int = 1) -> bool:
    """True for an integer >= ``least`` (a numpy integer too); a bool or a float is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _shown(value, show=str) -> str:
    """``show(value)`` for a refusal's text, or the value's type when Python will not print it."""
    try:
        return show(value)
    except ValueError:  # an int of more than 4,300 digits, or a value holding one
        name = type(value).__name__
        return f"{'an' if name[0] in 'aeiou' else 'a'} {name} too long to print"


def _reals(values, where: str, error: type = ValueError, finite: bool = False) -> np.ndarray:
    """Copy ``values`` into a read-only float64 array, testing each entry as the caller gave it.

    An integer or float ndarray needs no entry test; any other input is read entry by entry, so a
    bool, string, complex or sequence (ragged) entry is refused though numpy would cast it.
    ``error`` is the owner's type, ``where`` names the argument; ``finite`` refuses inf and NaN.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for v in np.asarray(values, dtype=object).ravel().tolist():
            if isinstance(v, (list, tuple, np.ndarray)):
                raise error(f"{where} is ragged: entry {_shown(v, repr)} is a sequence, "
                            "not a number")
            if not _is_real(v):
                raise error(f"{where} entry {_shown(v, repr)} is not a real number")
    arr = np.array(values, dtype=float)
    if finite and not np.isfinite(arr).all():
        raise error(f"{where} entry {float(arr[~np.isfinite(arr)][0])} is not finite")
    arr.setflags(write=False)
    return arr


def _frozen_vector(values, where: str, error: type) -> np.ndarray:
    """``values`` read by ``_reals`` as a 1-d vector with at least 2 entries."""
    arr = _reals(values, where, error)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionTooSmallError(f"expected a 1-d vector with at least 2 entries, got "
                                     f"shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class _Point:
    """A read-only vector of coordinates, accepted by the subclass's ``_check``."""

    coords: np.ndarray

    def __post_init__(self):
        coords = _frozen_vector(self.coords, f"{type(self).__name__} coords", NotInteriorError)
        self._check(coords)
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coords, dtype=dtype)

    def __len__(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class SimplexPoint(_Point):
    """Strictly positive probability vector in the interior of the simplex."""

    def _check(self, coords: np.ndarray) -> None:
        if not np.all(coords > 0.0):
            raise NotInteriorError(f"coordinates must be strictly positive, got {coords}")
        with np.errstate(over="ignore"):  # a sum past float64 is refused by its value, inf
            total = float(coords.sum())
        if not abs(total - 1.0) <= SIMPLEX_TOL:
            raise NotNormalizedError(f"coordinates sum to {total!r}, expected 1 within {SIMPLEX_TOL}")


@dataclass(frozen=True, eq=False)
class OrthantPoint(_Point):
    """Strictly positive abundance vector (no normalization constraint)."""

    def _check(self, coords: np.ndarray) -> None:
        if not (np.all(coords > 0.0) and np.all(np.isfinite(coords))):
            raise NotInteriorError(f"coordinates must be positive and finite, got {coords}")

    @property
    def total(self) -> float:
        """Aggregate abundance |x|."""
        return float(self.coords.sum())


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Vector in the tangent space of the simplex (components sum to zero)."""

    components: np.ndarray

    def __post_init__(self):
        components = _frozen_vector(self.components, "TangentVector components", NotTangentError)
        total = float(components.sum())
        if not abs(total) <= TANGENT_TOL:
            raise NotTangentError(f"components sum to {total!r}, expected 0 within {TANGENT_TOL}")
        object.__setattr__(self, "components", components)

    @property
    def dim(self) -> int:
        return self.components.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.components, dtype=dtype)


def _beyond_rounding(total: float, terms: np.ndarray) -> bool:
    """Whether ``total``, a sum of ``terms`` that is 0 in exact arithmetic, is past its rounding.

    It is when |total| exceeds TANGENT_TOL and TANGENT_TOL * sum |terms|, the size it rounds at,
    as x . g(x) of a large payoff can; a NaN is not.
    """
    return abs(total) > TANGENT_TOL and abs(total) > TANGENT_TOL * np.abs(terms).sum()


def _tangent(components: np.ndarray, x: np.ndarray, payoff: Callable) -> TangentVector:
    """A field x_i (g_i - x . g) the package computed, as a TangentVector held to its terms.

    Its sum must be finite and not ``_beyond_rounding`` the terms x_i g_i; ``payoff()`` gives g,
    called only past TANGENT_TOL.  ``TangentVector(...)`` holds a caller's array to TANGENT_TOL.
    """
    total = float(components.sum())
    if not np.isfinite(total) or abs(total) > TANGENT_TOL and _beyond_rounding(total, x * payoff()):
        raise NotTangentError(f"components sum to {total!r}, expected 0 within {TANGENT_TOL} "
                              "times sum |x_i g_i|")
    vector = object.__new__(TangentVector)  # past TangentVector's absolute test
    object.__setattr__(vector, "components", _reals(components, "components"))
    return vector


@dataclass(frozen=True, eq=False)
class CoupledState:
    """Joint state of two interacting populations."""

    pop1: SimplexPoint
    pop2: SimplexPoint

    def __post_init__(self):
        for name in ("pop1", "pop2"):
            pop = getattr(self, name)
            if not isinstance(pop, SimplexPoint):
                object.__setattr__(self, name, SimplexPoint(pop))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.pop1.dim, self.pop2.dim)

    def concatenated(self) -> np.ndarray:
        return np.concatenate([self.pop1.coords, self.pop2.coords])


def barycenter(n: int) -> SimplexPoint:
    """Uniform distribution on ``n`` types."""
    if not _is_count(n, least=2):
        raise DimensionTooSmallError(f"n must be an integer >= 2 (the number of types), "
                                     f"got {_shown(n, repr)}")
    return SimplexPoint(np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Fitness landscapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Linear:
    """Payoff f(x) = A x for a game matrix A.

    In a two-population context the matrix is rectangular and is applied to
    the opposing population's state (bimatrix convention).
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _reals(self.matrix, "Linear matrix", LandscapeValueError, finite=True)
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"payoff matrix must be 2-d, got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class LogLinear:
    """Payoff f_i(x) = sum_j A_ij log(x_j) + b_i."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        matrix = _reals(self.matrix, "LogLinear matrix", LandscapeValueError, finite=True)
        offset = _reals(self.offset, "LogLinear offset", LandscapeValueError, finite=True)
        if matrix.ndim != 2 or offset.ndim != 1 or matrix.shape[0] != offset.size:
            raise DimensionMismatchError(
                f"incompatible log-linear shapes: matrix {matrix.shape}, offset {offset.shape}"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True, eq=False)
class Scaled:
    """Aggregate-neutral rescaling g(x) = c * (f(x) - mean_f(x) * 1).

    The result satisfies x . g(x) = 0, so it is a valid ecological payoff for
    simplex-preserving dynamics at any positive speed factor c.
    """

    base: "Landscape"
    factor: float

    def __post_init__(self):
        if not _is_positive(self.factor):
            raise ValueError(f"scale factor must be > 0 and finite, got {_shown(self.factor)}")
        object.__setattr__(self, "factor", float(self.factor))


@dataclass(frozen=True, eq=False)
class Custom:
    """Black-box payoff map.

    The evaluator takes the state vector (or, in a two-population context,
    the pair ``(own, other)``) and returns the payoff vector for the owning
    population.
    """

    evaluator: Callable


Landscape = Union[Linear, LogLinear, Scaled, Custom]


def _call_custom(f: Custom, x: np.ndarray, other: Optional[np.ndarray] = None) -> np.ndarray:
    """``f.evaluator`` on its own copy of each state array, which it may keep or write into."""
    try:
        out = f.evaluator(x.copy()) if other is None else f.evaluator(x.copy(), other.copy())
    except Exception as exc:  # noqa: BLE001 - black-box evaluator
        raise EvaluationFailure(f"custom landscape evaluator raised: {exc!r}") from exc
    out = np.asarray(out, dtype=float)
    if out.shape != x.shape:
        raise EvaluationFailure(f"custom landscape returned shape {out.shape}, expected {x.shape}")
    return out


def _quiet_log(src: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(src)


def resolve_payoff(
    f: Landscape, n: int, m: Optional[int] = None, custom: Callable = _call_custom, log=np.log
) -> Callable:
    """The payoff of ``f`` for own states of ``n`` coordinates, dispatched and checked once.

    The result takes one state (n,) or rows (T, n); given ``m``, it takes
    ``(own, other)`` with opposing states of ``m`` coordinates.  On one state an optional
    ``out`` may follow: a ``Linear``, ``LogLinear`` or ``Scaled`` payoff writes into it and
    returns it, with the bits it returns without one; a ``Custom`` payoff returns its own
    array, which the caller reads and never writes.  A ``Custom`` landscape is evaluated as
    ``custom(f, *state)`` once per state, and its evaluator is handed a copy of each state
    (``_call_custom``); ``log`` is the logarithm of ``LogLinear``.
    """
    if isinstance(f, Scaled):
        base, c, mean = resolve_payoff(f.base, n, m, custom, log), np.array(f.factor), np.empty(())

        def rescaled(x, payoff, out):
            if x.ndim == 1:
                x.dot(payoff, mean)
                return np.multiply(c, np.subtract(payoff, mean, out), out)
            return c * (payoff - np.einsum("ij,ij->i", x, payoff)[:, None])

        if m is None:
            return lambda x, out=None: rescaled(x, base(x, out), out)
        return lambda x, other, out=None: rescaled(x, base(x, other, out), out)
    if isinstance(f, Custom):  # ``out`` goes unused: the evaluator's array is the payoff
        if m is None:
            return lambda x, out=None: (custom(f, x) if x.ndim == 1 else
                                        np.stack([custom(f, row) for row in x]))
        return lambda x, other, out=None: (custom(f, x, other) if x.ndim == 1 else
                                           np.stack([custom(f, *row) for row in zip(x, other)]))
    if not isinstance(f, (Linear, LogLinear)):
        raise TypeError(f"not a landscape: {f!r}")
    shape = (n, n if m is None else m)
    if f.matrix.shape != shape:
        raise DimensionMismatchError(f"{type(f).__name__} matrix shape {f.matrix.shape} does not "
                                     f"match state dimensions {shape}")
    # s.dot(M.T) keeps the bits of M @ s on one state, into ``out`` too, and of S @ M.T on rows
    mt = f.matrix.T
    if isinstance(f, Linear):
        return ((lambda x, out=None: x.dot(mt, out)) if m is None
                else lambda x, other, out=None: other.dot(mt, out))
    b, add = f.offset, np.add
    return ((lambda x, out=None: add(log(x).dot(mt, out), b, out)) if m is None
            else lambda x, other, out=None: add(log(other).dot(mt, out), b, out))


def evaluate_landscape(
    f: Landscape, x: np.ndarray, other: Optional[np.ndarray] = None
) -> np.ndarray:
    """Payoff of ``f`` at one state ``x`` of shape (n,) or at each row of shape (T, n).

    ``other`` is the opposing population's state (shape (m,) or (T, m)) in a
    two-population context; there ``Linear`` and ``LogLinear`` matrices are
    (n, m) and act on ``other``, and a ``Custom`` evaluator takes
    ``(own, other)``.
    """
    x = np.asarray(x, dtype=float)
    if other is None:
        return resolve_payoff(f, x.shape[-1], log=_quiet_log)(x)
    other = np.asarray(other, dtype=float)
    if x.shape[:-1] != other.shape[:-1]:  # one state against rows, or rows of two lengths
        raise DimensionMismatchError(f"own states of shape {x.shape} do not pair with other "
                                     f"states of shape {other.shape}")
    return resolve_payoff(f, x.shape[-1], other.shape[-1], log=_quiet_log)(x, other)


#: Row-wise (T, n) and two-population call sites use these names for the
#: same evaluator.
evaluate_landscape_batch = evaluate_landscape
evaluate_landscape_coupled = evaluate_landscape


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def validate_simplex(values) -> SimplexPoint:
    """Check a raw vector against the simplex-interior invariants.

    Returns the typed point; never renormalizes silently.
    """
    return SimplexPoint(values)


def _per_total(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) over its total, y = x / |x|: the frequencies of abundance rows."""
    with np.errstate(over="ignore"):
        totals = rows.sum(axis=-1, keepdims=True)
    over = totals == np.inf
    if over.any():  # a row divided by its largest coordinate first keeps its frequencies
        rows = np.where(over, rows / rows.max(axis=-1, keepdims=True), rows)
        totals = rows.sum(axis=-1, keepdims=True)
    return rows / totals


def normalize(x: OrthantPoint) -> SimplexPoint:
    """Project an abundance vector to frequencies: x / |x|."""
    if not isinstance(x, OrthantPoint):
        x = OrthantPoint(x)
    return SimplexPoint(_per_total(x.coords))


def section(x: SimplexPoint, tau: float) -> OrthantPoint:
    """Embed frequencies back into the orthant at aggregate level ``tau``."""
    if not _is_positive(tau):
        raise NonPositiveTauError(f"tau must be > 0, got {_shown(tau)}")
    coords = float(tau) * x.coords
    if not np.all(coords > 0.0):
        raise NotInteriorError(f"x * tau underflows to {coords} at level tau = {tau}")
    return OrthantPoint(coords)


def mean_fitness(x: SimplexPoint, f: Landscape) -> float:
    """Population-weighted mean payoff x . f(x)."""
    fvec = evaluate_landscape(f, x.coords)
    return float(np.dot(x.coords, fvec))


def fitness_variance(x: SimplexPoint, f: Landscape) -> float:
    """Population-weighted payoff variance sum_i x_i (f_i - mean)^2."""
    fvec = evaluate_landscape(f, x.coords)
    fbar = float(np.dot(x.coords, fvec))
    return float(np.dot(x.coords, (fvec - fbar) ** 2))

"""Finite-sum gradient oracle, oracle-call accounting, and gradient checking.

Everything downstream (optimizers, verification, the experiment harness)
consumes objectives through :class:`FiniteSumProblem`: n component
functions, each exposing a value and a gradient at a point. Charged oracle
access goes through :func:`full_gradient`, :func:`full_gradients` or
explicit ``counter.charge`` calls, as ``optimizers._RunState`` states;
diagnostic evaluations (loss curves, true gradient norms) use the
problem's own methods and are never charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def as_param_vector(values, d: int | None = None) -> np.ndarray:
    """Validate and return a finite float64 1-d parameter vector."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"parameter vector must be 1-d, got shape {x.shape}")
    if d is not None and x.shape[0] != d:
        raise ValueError(f"expected dimension {d}, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("parameter vector contains non-finite entries")
    return x


def _row_squares(rows: np.ndarray) -> np.ndarray:
    """``v.dot(v)`` of every row v of a (R, d) block, bitwise, in one stacked matmul."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``math.sqrt(v.dot(v))`` of every row v of a (R, d) block, bitwise."""
    return np.sqrt(_row_squares(rows))


class NonFiniteGradientError(ValueError):
    """A component gradient evaluated to a non-finite value mid-run.

    A runtime fault of the data or the iterate, raised after the first run
    starts: the command line exits 3 for it, as for every such fault.
    """


@dataclass
class OracleCounter:
    """Counts component-gradient evaluations charged to one optimizer run.

    A full-gradient evaluation charges exactly n, a single component
    gradient charges exactly 1. Diagnostic evaluations are never routed
    through a counter.
    """

    component_calls: int = 0

    def charge(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("cannot charge a negative number of oracle calls")
        self.component_calls += amount


class FiniteSumProblem:
    """Objective f(x) = (1/n) sum_i f_i(x) accessed through component oracles.

    Component indices are 1-based in the public interface. Subclasses
    implement :meth:`component_value` and :meth:`component_gradient`,
    and should override :meth:`_gradients` with a batched version whose
    rows are bitwise equal to :meth:`component_gradient` (the default
    stacks single calls). They may override :meth:`value` and
    :meth:`metric_gradients` with vectorized versions, which are used for
    diagnostics only, and :meth:`mean_gradients`,
    :meth:`component_values`, :meth:`_gradient` and
    :meth:`_gradient_difference` with faster versions bitwise equal to
    their defaults.

    Indices and points are checked once, where they enter: the public
    :meth:`component_gradients` checks them and calls :meth:`_gradients`,
    which checks nothing. Its one-sample counterparts take an integer
    0-based row and one point, unchecked: :meth:`_gradient` is that
    sample's gradient, by default ``component_gradient(row + 1, x)``, and
    :meth:`_gradient_difference` its difference at x and at an anchor, by
    default two :meth:`_gradient` calls, behind the public
    :meth:`component_gradient_difference`. The step loops call the
    unchecked entries directly with the 0-based rows they drew themselves.

    Instances are immutable after construction and safe for concurrent
    read-only evaluation.
    """

    def __init__(self, n: int, d: int, known_smoothness: float | None = None):
        if n < 1:
            raise ValueError(f"component count must be positive, got {n}")
        if d < 1:
            raise ValueError(f"dimension must be positive, got {d}")
        if known_smoothness is not None and not known_smoothness > 0:  # NaN too
            raise ValueError("smoothness constant must be positive when given")
        self.n = int(n)
        self.d = int(d)
        self.known_smoothness = known_smoothness

    def component_value(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        """Gradients of the components ``indices`` at x, shape (k, d).

        Indices are 1-based like :meth:`component_gradient` and may
        repeat. ``x`` is one point, or a (k, d) block with one point per
        index. Row r is bitwise equal to
        ``component_gradient(indices[r], x)``, or to
        ``component_gradient(indices[r], x[r])`` for a block. Checks both,
        then calls :meth:`_gradients`.
        """
        indices = self._check_indices(indices)
        x = self._check_at(indices, x)
        if indices.size == 0:
            return np.empty((0, self.d))
        return self._gradients(indices - 1, x)

    def _gradients(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """:meth:`component_gradients` of the 0-based 1-d int array ``rows``
        at the float64 x, one point or one per row, unchecked and not empty."""
        points = x if x.ndim == 2 else [x] * len(rows)
        return np.stack(
            [self.component_gradient(int(r) + 1, p) for r, p in zip(rows, points)]
        )

    def component_values(self, i: int, points) -> np.ndarray:
        """:meth:`component_value` of component i at each row of ``points``, shape (T,)."""
        return np.array([self.component_value(i, p) for p in self._check_points(points)])

    def component_gradient_difference(self, i: int, x, anchor) -> np.ndarray:
        """grad f_i(x) - grad f_i(anchor), the SPIDER and SVRG single-sample
        correction: checks i and both points, then calls :meth:`_gradient_difference`."""
        self._check_index(i)
        return self._gradient_difference(i - 1, self._check_point(x), self._check_point(anchor))

    def _gradient(self, row: int, x: np.ndarray) -> np.ndarray:
        """The (d,) gradient of the 0-based sample ``row`` at the float64
        point x, unchecked: bitwise ``component_gradient(row + 1, x)``."""
        return self.component_gradient(row + 1, x)

    def _gradient_difference(self, row: int, x: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        """:meth:`component_gradient_difference` of the 0-based integer
        ``row``, unchecked: bitwise the difference of two :meth:`_gradient`
        calls."""
        return self._gradient(row, x) - self._gradient(row, anchor)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"component index {i} out of range 1..{self.n}")

    def _check_indices(self, indices) -> np.ndarray:
        """1-d int64 array of 1-based indices, each checked to be in range;
        the first index out of range is named."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size and (indices.min() < 1 or indices.max() > self.n):
            bad = (indices < 1) | (indices > self.n)
            self._check_index(int(indices[np.argmax(bad)]))
        return indices

    def _check_point(self, x) -> np.ndarray:
        """``x`` as float64, one point of shape (d,)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.d},)")
        return x

    def _check_at(self, indices: np.ndarray, x) -> np.ndarray:
        """``x`` as float64: one point, or a (k, d) block of one point per index."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            return self._check_point(x)
        if x.shape != (indices.size, self.d):
            raise ValueError(
                f"points have shape {x.shape}, expected ({indices.size}, {self.d})"
            )
        return x

    def _check_points(self, points) -> np.ndarray:
        """A (T, d) float64 block of points, one per row."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.d:
            raise ValueError(
                f"points have shape {points.shape}, expected (T, {self.d})"
            )
        return points

    def mean_gradient(self, x: np.ndarray) -> np.ndarray:
        """Definitional full gradient: arithmetic mean of all component gradients.

        This is the reference summation used by the charged oracle path,
        so estimator-reset exactness can be asserted bitwise against it.
        """
        return self.component_gradients(np.arange(1, self.n + 1), x).mean(axis=0)

    def mean_gradients(self, points) -> np.ndarray:
        """:meth:`mean_gradient` at every row of ``points``, shape (T, d).

        Row t is bitwise equal to ``mean_gradient(points[t])``; the
        default stacks single calls.
        """
        points = self._check_points(points)
        if points.shape[0] == 0:
            return np.empty((0, self.d))
        return np.stack([self.mean_gradient(x) for x in points])

    def value(self, x: np.ndarray) -> float:
        """Objective value (1/n) sum_i f_i(x). Diagnostic, uncharged."""
        vals = np.array([self.component_value(i, x) for i in range(1, self.n + 1)])
        return float(vals.mean())

    def metric_gradient(self, x: np.ndarray) -> np.ndarray:
        """Full gradient for logging and verification. Diagnostic, uncharged.

        The one-row case of :meth:`metric_gradients`, so each family
        keeps one formula for it.
        """
        return self.metric_gradients(np.asarray(x, dtype=np.float64)[None])[0]

    def metric_gradients(self, points) -> np.ndarray:
        """:meth:`metric_gradient` at every row of ``points``, shape (T, d).

        Diagnostic, uncharged; defaults to :meth:`mean_gradients`.
        Subclasses may override with a vectorized implementation;
        agreement with :meth:`mean_gradient` is then up to float
        reassociation.
        """
        return self.mean_gradients(points)

    def metric_gradient_norms(self, points) -> np.ndarray:
        """The norms of :meth:`metric_gradients`, shape (T,); a family may
        take them chunk by chunk, bitwise equal, holding no (T, d) array."""
        return _row_norms(self.metric_gradients(points))


def full_gradient(
    problem: FiniteSumProblem, x: np.ndarray, counter: OracleCounter
) -> np.ndarray:
    """Exact full gradient (1/n) sum_i grad f_i(x), charging n oracle calls:
    the one-row case of :func:`full_gradients`.

    Raises :class:`NonFiniteGradientError`, naming the first bad
    component, when the gradient is not finite.
    """
    x = problem._check_point(x)
    g, faults = full_gradients(problem, x[None], [counter])
    if faults:
        raise faults[0]
    return g[0]


def full_gradients(
    problem: FiniteSumProblem, points, counters: list
) -> tuple[np.ndarray, dict]:
    """Exact full gradients at every row of a (R, d) block, row r charging
    n to ``counters[r]``, in one :meth:`~FiniteSumProblem.mean_gradients`
    call.

    Returns the (R, d) gradients, each row bitwise ``mean_gradient`` at
    that point, and by row index a :class:`NonFiniteGradientError` naming
    the first bad component for each row that is not finite.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape != (len(counters), problem.d):
        raise ValueError(
            f"points have shape {points.shape}, expected ({len(counters)}, {problem.d})"
        )
    for counter in counters:
        counter.charge(problem.n)
    g = problem.mean_gradients(points)
    bad = np.flatnonzero(~np.isfinite(g).all(axis=1))
    return g, {int(k): _non_finite(problem, points[k]) for k in bad}


def _non_finite(problem: FiniteSumProblem, x: np.ndarray) -> NonFiniteGradientError:
    """The error of a full gradient at x that is not finite: it names the
    first component whose gradient at x is not finite, if one is."""
    rows = problem.component_gradients(np.arange(1, problem.n + 1), x)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        return NonFiniteGradientError(
            f"non-finite gradient from component {int(np.argmax(bad)) + 1}"
        )
    return NonFiniteGradientError("non-finite full gradient")


# Most points per call of a finite-difference value function.
_FD_BLOCK = 256


def finite_difference_gradient(
    values: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference gradient at ``x``, step ``h``, of the function
    whose values at the rows of a (B, d) block ``values`` returns, shape (B,).

    Independent oracle for checking analytic gradients: component j is
    (f(x + h e_j) - f(x - h e_j)) / (2 h). A call of ``values`` gets at most
    _FD_BLOCK points, x + h e_j for a run of j, then x - h e_j for the run.
    """
    if not h > 0:  # NaN too
        raise ValueError(f"finite-difference step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for start in range(0, x.shape[0], _FD_BLOCK // 2):
        coords = np.arange(start, min(start + _FD_BLOCK // 2, x.shape[0]))
        steps = np.zeros((coords.size, x.shape[0]))
        steps[coords - start, coords] = h
        vals = values(np.concatenate((x + steps, x - steps)))
        plus, minus = np.asarray(vals, dtype=np.float64).reshape(2, coords.size)
        grad[coords] = (plus - minus) / (2.0 * h)
    return grad

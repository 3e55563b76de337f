"""Variance-reduced and stochastic optimizers over a finite-sum oracle.

The centerpiece is the adaptive SPIDER run: the recursive estimator

    g_t = grad f_{i_t}(x_t) - grad f_{i_t}(x_{t-1}) + g_{t-1},

reset to the exact full gradient every ``period`` steps, driven by the
parameter-free step size

    gamma_t = 1 / (n^{1/4} * beta0 * sqrt(sqrt(n) * G0^2 + sum_{s<=t} ||g_s||^2)).

The accumulator includes the current ||g_t||^2, which is what bounds
every step length by 1/beta0.

Every method is one gradient estimator paired with one step rule, checked
once into a :class:`_Method`. A run steps alone in ``_run_loop``, or with
runs of its method in :func:`lockstep_run`; :class:`_RunState` states how
both loops draw, charge and stop, and :class:`RunTrace` what a run keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    FiniteSumProblem,
    OracleCounter,
    _row_norms,
    _row_squares,
    as_param_vector,
    full_gradient,
    full_gradients,
)

# Iterates beyond this magnitude (or any non-finite coordinate) abort the
# run; the trace records the step index instead of raising.
DIVERGENCE_LIMIT = 1e12


def _diverged(x: np.ndarray) -> bool:
    """True if any coordinate of x, a vector or a (R, d) block, is non-finite
    or beyond DIVERGENCE_LIMIT, in one reduction: a NaN propagates through
    the maximum and fails the comparison, and an infinity exceeds the limit."""
    return not (np.maximum.reduce(np.abs(x), axis=None) <= DIVERGENCE_LIMIT)


def _mean_difference(at_x: np.ndarray, at_anchor: np.ndarray) -> np.ndarray:
    """Mean over axis -2 of ``at_x - at_anchor``, summed from zero in
    sampling order: add each grad f_i(x), subtract each grad f_i(anchor).
    ``np.add.accumulate`` keeps that order for every d; an axis-0 sum turns
    pairwise once d == 1."""
    *lead, batch, d = at_x.shape
    terms = np.zeros((*lead, 2 * batch + 1, d))
    terms[..., 1::2, :] = at_x
    np.negative(at_anchor, out=terms[..., 2::2, :])
    return np.add.accumulate(terms, axis=-2)[..., -1, :] / batch


def _corrections(problem: FiniteSumProblem, pair, block, h: int) -> np.ndarray:
    """grad f_i(x) - grad f_i(anchor) for each of R rows, averaged over the
    row's samples (by :func:`_mean_difference` for a batch above 1), from
    one ``_gradients`` call on the (2, R, d) ``block`` of x, ``block[h]``,
    and the anchor, ``block[1 - h]``. ``pair`` holds the 0-based
    (2, R, batch) samples, the same in both halves. The caller drew them,
    so they go to the unchecked ``_gradients``: nothing here checks them."""
    batch = pair.shape[2]
    points = block if batch == 1 else np.repeat(block, batch, axis=1)
    both = problem._gradients(pair.reshape(-1), points.reshape(-1, problem.d))
    if batch == 1:
        both = both.reshape(block.shape)
        return both[h] - both[1 - h]
    both = both.reshape(pair.shape + (problem.d,))
    return _mean_difference(both[h], both[1 - h])


def _exact_corrections(problem: FiniteSumProblem, block, h: int) -> np.ndarray:
    """grad f(x) - grad f(anchor) at each row of ``block[h]`` and
    ``block[1 - h]``, x and the anchor as in :func:`_corrections`, from one
    ``mean_gradients`` call on the whole block."""
    both = problem.mean_gradients(block.reshape(-1, problem.d)).reshape(block.shape)
    return both[h] - both[1 - h]


def spider_estimator_update(
    problem: FiniteSumProblem, x, anchor, base, reset: bool, exact: bool, indices,
    counter: OracleCounter,
) -> np.ndarray:
    """One SVRG or SPIDER estimate of a run alone at x.

    At a reset it is the exact full gradient, charged to ``counter``.
    Otherwise it is base plus :func:`_corrections` over the 1-based
    ``indices`` the loop drew, or with ``exact`` plus
    :func:`_exact_corrections` (``indices`` None), each on a one-row block
    of x and the anchor; a single sample, faster, is one
    ``component_gradient_difference``. It draws nothing, and the loop
    charges the inner step (see :class:`_RunState`).
    """
    if reset:
        return full_gradient(problem, x, counter)
    if exact:
        return _exact_corrections(problem, np.stack((x, anchor))[:, None], 0)[0] + base
    if len(indices) == 1:
        return problem.component_gradient_difference(int(indices[0]), x, anchor) + base
    pair = np.stack((indices, indices))[:, None] - 1
    return _corrections(problem, pair, np.stack((x, anchor))[:, None], 0)[0] + base


def _check_positive(what: str, *values) -> None:
    """Refuse ``values`` unless each is positive and finite; NaN is refused."""
    if not all(0 < v < math.inf for v in values):
        raise ValueError(f"{what} must be positive and finite")


def _adaspider_constants(n: int, beta0: float, g0: float) -> tuple[float, float]:
    """The run-constant factors (n^{1/4} beta0, sqrt(n) G0^2) of the step size."""
    if n < 1:
        raise ValueError("component count must be positive")
    _check_positive("beta0 and G0", beta0, g0)
    return n**0.25 * beta0, math.sqrt(n) * g0**2


def adaspider_step_size(
    n: int, beta0: float, g0: float, accumulator: float
) -> float:
    """Adaptive step size; the accumulator must already include ||g_t||^2."""
    if not accumulator >= 0:
        raise ValueError("squared-norm accumulator must be non-negative")
    scale, offset = _adaspider_constants(n, beta0, g0)
    return 1.0 / (scale * math.sqrt(offset + accumulator))


@dataclass
class AdaSpiderConfig:
    """Inputs of the adaptive run: x0 aside, only beta0, G0 and the budget.

    beta0 carries units of inverse parameters and G0 units of gradients;
    the defaults of 1 are the untuned, parameter-free setting. ``period``
    defaults to n; ``inner_batch`` averages that many sampled corrections
    per inner step (an extension, default 1). A run checks them all.
    """

    steps: int
    beta0: float = 1.0
    g0: float = 1.0
    period: int | None = None
    inner_batch: int = 1


@dataclass
class EpochRow:
    """One diagnostic row, logged when another full pass of charged calls completes."""

    epoch: int
    oracle_calls: int
    loss: float
    grad_norm: float
    step_size: float


@dataclass
class RunTrace:
    """One optimizer run, alone or a lockstep member, under one record rule.

    Without ``keep_path`` (the harness) a run keeps nothing per step; with
    "iterates" (the rate check) each step's iterate; with True each step's
    size, iterate and estimate, whose norm is ``estimator_norms``; any
    other value is refused. A record not kept is None, a kept one a view
    of an array sized for the step budget. Only without
    ``keep_path`` are epoch rows recorded, with their iterate snapshots in
    ``epoch_points``, at the top of a step whenever the charged-call count
    has completed another full pass, so every snapshot is one of x_0 ..
    x_{T-1}; :func:`_epoch_rows` evaluates them after the steps.
    ``charged_calls`` is the run's charged total when it stopped.
    """

    algo: str
    num_steps: int
    charged_calls: int
    step_sizes: np.ndarray | None
    epoch_rows: list[EpochRow]
    epoch_points: list[np.ndarray]
    x_final: np.ndarray
    diverged_at: int | None = None
    iterates: np.ndarray | None = None
    estimates: np.ndarray | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def estimator_norms(self) -> np.ndarray | None:
        """||g_t|| of each kept estimate, bitwise ``math.sqrt(g.dot(g))``."""
        return None if self.estimates is None else _row_norms(self.estimates)


@dataclass(frozen=True)
class _Method:
    """One run's arguments as both step loops read them, once checked.

    ``estimator`` is "stochastic" (one sampled gradient a step), or "svrg"
    or "spider": g = grad f_i(x) - grad f_i(anchor) + base, reset to anchor
    x and base the full gradient every ``period`` steps, averaging ``batch``
    corrections (both 1 for "stochastic"). ``rule`` names the step rule and
    ``coeffs`` holds its run constants:

    - "constant", (eta,): gamma = eta;
    - "adaptive", (eta, scale, offset): gamma = eta / (scale * sqrt(offset
      + the running sum of ||g_s||^2, the current one included));
    - "eps", (eps, lsn, cap): gamma = min(eps / (lsn * ||g_t||), cap), and
      cap where the norm or the denominator is zero.
    """

    estimator: str
    steps: int
    period: int
    batch: int
    rule: str
    coeffs: tuple

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("step budget must be at least 1")

    @property
    def resets(self) -> bool:
        """Whether the estimate resets to a full gradient every ``period`` steps."""
        return self.estimator != "stochastic"

    @property
    def moving(self) -> bool:
        """Whether the anchor moves to each iterate (SPIDER), not at resets only."""
        return self.estimator == "spider"

    def exact(self, n: int) -> bool:
        """Whether an inner step on n components is the exact full-gradient
        difference, drawing nothing: a SPIDER batch of n or more."""
        return self.moving and self.batch >= n

    def costs(self, n: int) -> tuple[int, int, int]:
        """(period, calls per reset, calls per inner step) on n components:
        a stochastic step is a one-call reset, and an exact inner step
        takes 2n calls."""
        if not self.resets:
            return 1, 1, 0
        return self.period, n, 2 * (n if self.exact(n) else self.batch)

    @property
    def lockstep_key(self) -> tuple[int, int, int]:
        """(steps, period, batch), equal in the runs of a lockstep group."""
        return self.steps, self.period, self.batch


# Each method's checks of its arguments, in the order and with the errors
# of its run function, which the lockstep groups make too.


def _check_batch(batch) -> None:
    if batch < 1:
        raise ValueError("inner batch size must be at least 1")


def _spider_period(period, default: int) -> int:
    period = period if period is not None else default
    if period < 1:
        raise ValueError("full-gradient period must be at least 1")
    return period


def _adaspider_method(problem: FiniteSumProblem, config: AdaSpiderConfig) -> _Method:
    period = _spider_period(config.period, problem.n)
    # adaspider_step_size with its checks and constants taken out of the
    # loop; same operations in the same order, so every gamma is bitwise equal
    scale, offset = _adaspider_constants(problem.n, config.beta0, config.g0)
    _check_batch(config.inner_batch)
    return _Method(
        "spider", config.steps, period, config.inner_batch, "adaptive", (1.0, scale, offset)
    )


def _spider_method(
    problem: FiniteSumProblem, epsilon, smoothness, steps, period, inner_batch
) -> _Method:
    _check_positive("target accuracy", epsilon)
    _check_positive("smoothness constant", smoothness)
    period = _spider_period(period, problem.n)
    _check_batch(inner_batch)
    root_n = math.sqrt(problem.n)
    cap = 1.0 / (2.0 * root_n * smoothness)
    return _Method("spider", steps, period, inner_batch, "eps", (epsilon, smoothness * root_n, cap))


def _spiderboost_method(
    problem: FiniteSumProblem, smoothness, steps, period, batch_size
) -> _Method:
    _check_positive("smoothness constant", smoothness)
    root = ceil_sqrt(problem.n)
    period = _spider_period(period, root)
    batch = batch_size if batch_size is not None else root
    _check_batch(batch)
    return _Method("spider", steps, period, batch, "constant", (1.0 / smoothness,))


def _svrg_method(
    problem: FiniteSumProblem, eta, epoch_length, steps, inner_batch
) -> _Method:
    _check_positive("step size", eta)
    _check_batch(inner_batch)
    m = epoch_length if epoch_length is not None else problem.n
    if m < 1:
        raise ValueError("epoch length must be at least 1")
    return _Method("svrg", steps, m, inner_batch, "constant", (eta,))


def _sgd_method(problem: FiniteSumProblem, eta, steps) -> _Method:
    _check_positive("step size", eta)
    return _Method("stochastic", steps, 1, 1, "constant", (eta,))


def _adagrad_norm_method(problem: FiniteSumProblem, eta, b0, steps) -> _Method:
    _check_positive("step size", eta)
    _check_positive("norm offset b0", b0)
    return _Method("stochastic", steps, 1, 1, "adaptive", (eta, 1.0, b0**2))


# A loop draws a run's sample indices at most about this many at a time (see _RunState).
_DRAW_CHUNK = 1024


def _epoch_rows(problem: FiniteSumProblem, rows: list, points: list, diverged: bool) -> list:
    """``rows`` with the loss and true gradient norm at each of ``points``,
    by one ``value`` and one ``metric_gradient`` call a row; a diverged
    run's last row keeps the infinite ones it was recorded with."""
    for row, x in zip(rows[: len(rows) - int(diverged)], points):
        row.loss = problem.value(x)
        row.grad_norm = float(np.linalg.norm(problem.metric_gradient(x)))
    return rows


def _check_keep_path(keep_path) -> None:
    """Refuse a ``keep_path`` other than False, True and "iterates"."""
    # identity, not equality, since 1 == True and 0 == False
    if keep_path is not True and keep_path is not False and not (
        isinstance(keep_path, str) and keep_path == "iterates"
    ):
        raise ValueError(f"keep_path must be False, True or 'iterates', got {keep_path!r}")


def _records(keep_path, size: int, steps: int, d: int) -> tuple:
    """(step sizes, iterates, estimates) of ``size`` runs of ``steps`` steps,
    member axis first, as far as RunTrace's rule keeps them. They are
    allocated when the runs start, so a group's are held whole while any
    member's trace, a view of its row, is."""
    if keep_path is True:
        return np.empty((size, steps)), np.empty((size, steps, d)), np.empty((size, steps, d))
    return None, np.empty((size, steps, d)) if keep_path else None, None


def _trace(problem, algo: str, taken: int, records, row, run, x, diverged_at) -> RunTrace:
    """The RunTrace of a run that stopped at ``x`` after ``taken`` steps, from
    its ``row`` of :func:`_records` and the counter and epoch rows of ``run``."""
    step_sizes, iterates, estimates = (None if a is None else a[row, :taken] for a in records)
    return RunTrace(
        algo=algo,
        num_steps=taken,
        charged_calls=run.counter.component_calls,
        step_sizes=step_sizes,
        epoch_rows=_epoch_rows(problem, run.rows, run.points, diverged_at is not None),
        epoch_points=run.points,
        x_final=np.array(x, copy=True),
        diverged_at=diverged_at,
        iterates=iterates,
        estimates=estimates,
    )


class _RunState:
    """What one run owns, alone or as a lockstep member: its oracle
    ``counter``, its epoch ``rows`` and their ``points``, and, in a group,
    its ``outcome``. Both step loops follow one protocol with it:

    - the loop draws: :meth:`refill` gives it the run's next chunk of
      1-based sample indices, ``batch * max(1, min(_DRAW_CHUNK // batch,
      steps))`` values of ``rng.integers(1, n + 1, size=k)``, which are
      those of k scalar draws; the loop serves them from a cursor;
    - a reset charges the counter n as it happens, through
      ``full_gradient`` or ``full_gradients``; the loop counts the sampled
      calls itself (epoch rows read that count) and charges them once, when
      the run stops, so the trace's ``charged_calls`` is the counter's total;
    - a run stops when its steps are done, when x diverges, or when a reset
      gradient is not finite; it is then charged and :meth:`settle`-d,
      which leaves the generator where scalar draws would.
    """

    def __init__(self, rng: np.random.Generator, n: int, method: _Method):
        self.rng, self.n = rng, n
        self.counter = OracleCounter()
        self.chunk = method.batch * max(1, min(_DRAW_CHUNK // method.batch, method.steps))
        self.state = self.outcome = None
        self.rows, self.points = [], []

    def refill(self) -> np.ndarray:
        """Draw and return the next chunk of 1-based indices."""
        self.state = self.rng.bit_generator.state
        return self.rng.integers(1, self.n + 1, size=self.chunk)

    def settle(self, served: int) -> None:
        """Leave the generator where scalar draws of the values served would:
        rewind to before the last chunk and redraw its first ``served``."""
        if self.state is not None and served < self.chunk:
            self.rng.bit_generator.state = self.state
            self.rng.integers(1, self.n + 1, size=served)

    def mark(self, calls: int, gamma: float, x: np.ndarray) -> None:
        """Record an epoch row after ``calls`` charged calls and the last step
        size ``gamma``, to be evaluated at this copy of x by _epoch_rows."""
        self.rows.append(EpochRow(calls // self.n, calls, math.inf, math.inf, gamma))
        self.points.append(np.array(x, copy=True))


def _run_loop(problem, algo: str, x0, rng, keep_path, method: _Method) -> RunTrace:
    """The step loop of a run alone: g is ``method``'s estimate at x (one
    sampled component gradient, or :func:`spider_estimator_update`), gamma
    its step rule's size, x <- x - gamma * g. It draws, charges and stops
    as :class:`_RunState` says and keeps what :class:`RunTrace` says."""
    n = problem.n
    run = _RunState(rng, n, method)
    counter = run.counter
    period, batch, rule = method.period, method.batch, method.rule
    resets, moving, exact = method.resets, method.moving, method.exact(n)
    _, reset_cost, inner_cost = method.costs(n)
    cost = inner_cost if resets else reset_cost  # per sampled step; a stochastic one is a reset
    if rule == "constant":
        (eta,) = method.coeffs
    elif rule == "eps":
        eps, lsn, cap = method.coeffs
    else:
        eta, scale, offset = method.coeffs
    x = as_param_vector(x0, problem.d)
    _check_keep_path(keep_path)
    records = _records(keep_path, 1, method.steps, problem.d)
    step_sizes, iterates, estimates = records
    gamma, accum, diverged_at = 0.0, 0.0, None
    anchor = base = indices = None
    draws = np.empty(0, dtype=np.int64)
    calls = sampled = pos = 0
    last_epoch = math.inf if keep_path else -1  # with a path, no epoch is ever due
    try:
        for t in range(method.steps):
            if calls // n > last_epoch:
                run.mark(calls, gamma, x)
                last_epoch = calls // n
            if keep_path:
                iterates[0, t] = x
            if resets and t % period == 0:
                g = spider_estimator_update(problem, x, anchor, base, True, exact, None, counter)
                calls += n
                anchor, base = x, g
            else:
                if not exact:
                    if pos == len(draws):
                        draws, pos = run.refill(), 0
                    indices = draws[pos : pos + batch]
                    pos += batch
                if resets:
                    g = spider_estimator_update(
                        problem, x, anchor, base, False, exact, indices, counter
                    )
                else:
                    g = problem.component_gradient(int(indices[0]), x)
                calls += cost
                sampled += cost
                if moving:
                    anchor, base = x, g
            square = float(g.dot(g))
            if rule == "constant":
                gamma = eta
            elif rule == "eps":
                norm = math.sqrt(square)
                denom = lsn * norm  # eps / denom would be +inf at zero
                gamma = cap if norm == 0.0 or denom == 0.0 else min(eps / denom, cap)
            else:
                accum += square
                gamma = eta / (scale * math.sqrt(offset + accum))
            x = x - gamma * g
            if keep_path is True:
                step_sizes[0, t] = gamma
                estimates[0, t] = g
            if _diverged(x):
                diverged_at = t
                if not keep_path:
                    run.mark(calls, gamma, x)
                break
    finally:
        counter.charge(sampled)
        run.settle(pos)
    taken = method.steps if diverged_at is None else diverged_at + 1
    return _trace(problem, algo, taken, records, 0, run, x, diverged_at)


def adaspider_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    config: AdaSpiderConfig,
    rng: np.random.Generator,
    *,
    keep_path: bool | str = False,
) -> RunTrace:
    """Run the adaptive variance-reduced method for ``config.steps`` steps.

    Per step: estimator update, accumulator update with the new squared
    norm, step size from the accumulator, then x <- x - gamma * g. It
    draws as :class:`_RunState` says, so a scalar re-implementation with
    the same rng reproduces the run exactly (``keep_path``: see
    :class:`RunTrace`).
    """
    method = _adaspider_method(problem, config)
    return _run_loop(problem, "adaspider", x0, rng, keep_path, method)


def spider_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    epsilon: float,
    smoothness: float,
    steps: int,
    rng: np.random.Generator,
    *,
    period: int | None = None,
    inner_batch: int = 1,
    keep_path: bool | str = False,
) -> RunTrace:
    """Accuracy-dependent variant: same estimator, step size
    min(eps / (L sqrt(n) ||g_t||), 1 / (2 sqrt(n) L)).

    A zero estimator norm, or a denominator that underflows to zero,
    selects the constant branch. ``inner_batch`` is an opaque mini-batch
    knob, default 1. ``keep_path``: see :class:`RunTrace`.
    """
    method = _spider_method(problem, epsilon, smoothness, steps, period, inner_batch)
    return _run_loop(problem, "spider", x0, rng, keep_path, method)


def ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for n >= 1: SpiderBoost's default period and batch."""
    return math.isqrt(n - 1) + 1


def spiderboost_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    smoothness: float,
    steps: int,
    rng: np.random.Generator,
    *,
    period: int | None = None,
    batch_size: int | None = None,
    keep_path: bool | str = False,
) -> RunTrace:
    """Constant-step variant: full gradient every ceil(sqrt(n)) steps,
    mini-batched corrections of size ceil(sqrt(n)) in between, step 1/L.
    ``keep_path``: see :class:`RunTrace`.
    """
    method = _spiderboost_method(problem, smoothness, steps, period, batch_size)
    return _run_loop(problem, "spiderboost", x0, rng, keep_path, method)


def svrg_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    eta: float,
    epoch_length: int | None,
    steps: int,
    rng: np.random.Generator,
    *,
    inner_batch: int = 1,
    keep_path: bool | str = False,
) -> RunTrace:
    """Snapshot-corrected stochastic steps (epoch length n by default) with
    constant step size ``eta``. ``keep_path``: see :class:`RunTrace`."""
    method = _svrg_method(problem, eta, epoch_length, steps, inner_batch)
    return _run_loop(problem, "svrg", x0, rng, keep_path, method)


def sgd_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    eta: float,
    steps: int,
    rng: np.random.Generator,
    *,
    keep_path: bool | str = False,
) -> RunTrace:
    """Plain SGD, one component per step; ``keep_path``: see :class:`RunTrace`."""
    return _run_loop(problem, "sgd", x0, rng, keep_path, _sgd_method(problem, eta, steps))


def adagrad_norm_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    eta: float,
    b0: float,
    steps: int,
    rng: np.random.Generator,
    *,
    keep_path: bool | str = False,
) -> RunTrace:
    """Stochastic gradients scaled by the inverse root of their running
    squared-norm sum; the accumulator includes the current norm.
    ``keep_path``: see :class:`RunTrace`."""
    method = _adagrad_norm_method(problem, eta, b0, steps)
    return _run_loop(problem, "adagrad_norm", x0, rng, keep_path, method)


def lockstep_run(
    problem: FiniteSumProblem,
    algo: str,
    runs: list,
    *,
    keep_path: bool | str = False,
) -> Iterator:
    """R runs of one method stepped together as one (R, d) iterate array.

    ``runs`` holds one (method, x0, rng) per member, ``method`` its checked
    :class:`_Method`; the members share its ``lockstep_key``, and ``algo``
    names them in their traces. The arguments are checked at the call, and
    the members stepped at the first request. Returns an iterator over
    each member's RunTrace, or the NonFiniteGradientError its
    ``<algo>_run`` call would raise, in order; a trace is bit for bit that
    call's with the same ``keep_path``.
    """
    x0s = [as_param_vector(x0, problem.d) for _, x0, _ in runs]
    if len({m.lockstep_key for m, _, _ in runs}) > 1:
        raise ValueError("lockstep runs must share steps, period and inner batch")
    _check_keep_path(keep_path)
    return _lockstep_steps(problem, algo, runs, x0s, keep_path)


def _lockstep_steps(problem, algo: str, runs: list, x0s: list, keep_path) -> Iterator:
    """The outcomes of :func:`lockstep_run`'s members, each with its own
    step size and :class:`_RunState`. Unlike a run alone, the loop serves
    the live members' stacked chunks from one cursor, resets all live rows
    in one ``full_gradients`` call, takes every SVRG and SPIDER inner step
    from :func:`_corrections` (or :func:`_exact_corrections`), and cuts a
    stopped member's row from the per-row state, step rule columns too.
    The loop drew its samples itself, so they go to the problem's
    unchecked ``_gradients``, 0-based; nothing in a step checks indices.
    """
    if not runs:
        return
    method = runs[0][0]
    steps, period, batch, rule = method.steps, method.period, method.batch, method.rule
    n, d, size = problem.n, problem.d, len(runs)
    resets, moving, exact = method.resets, method.moving, method.exact(n)
    _, reset_cost, inner_cost = method.costs(n)
    cost = inner_cost if resets else reset_cost  # per sampled step; a stochastic one is a reset

    members = [_RunState(rng, n, m) for m, _, rng in runs]
    step_sizes, iterates, estimates = records = _records(keep_path, size, steps, d)
    # Per-row state, one row per member still stepping; ``live`` maps rows
    # to members, in member order, and ``at`` indexes their rows of the
    # records: a plain slice until a member stops. x and the anchor are the
    # halves of one (2, R, d) ``block``, x ``block[h]``: the new x goes
    # into the old anchor's half when the anchor moves to x, at every
    # SPIDER step and at an SVRG reset, and overwrites x otherwise. Cutting
    # rows copies the block, and a trace copies what it keeps, so no trace
    # shares the block. ``pair`` holds a step's 0-based draws once for each half.
    live, at = np.arange(size), slice(None)
    block, h = np.empty((2, size, d)), 0
    x = base = np.stack(x0s, out=block[0])
    pair = np.empty((2, size, batch), dtype=np.int64)
    coeffs = tuple(np.array(column) for column in zip(*(m.coeffs for m, _, _ in runs)))
    accum = np.zeros(size)
    gamma = np.zeros(size)  # the last step size, as epoch rows record it
    draws = np.empty((size, 0), dtype=np.int64)
    calls = sampled = pos = 0
    last_epoch = math.inf if keep_path else -1  # with a path, no epoch is ever due

    def mark(which):
        for k in which:
            members[live[k]].mark(calls, float(gamma[k]), x[k])

    def stop(mask, taken, diverged_at=None):
        """End the masked rows' runs after ``taken`` steps; drop the rows."""
        nonlocal live, at, block, x, pair, coeffs, accum, gamma, draws, base
        for k in np.flatnonzero(mask):
            member = members[live[k]]
            member.counter.charge(sampled)
            member.settle(pos)
            if member.outcome is None:
                member.outcome = _trace(
                    problem, algo, taken, records, live[k], member, x[k], diverged_at
                )
        keep = ~mask
        live, accum, gamma, draws, base = (a[keep] for a in (live, accum, gamma, draws, base))
        block, pair = np.ascontiguousarray(block[:, keep]), pair[:, keep]
        x = block[h]
        coeffs = tuple(column[keep] for column in coeffs)
        at = live

    for t in range(steps):
        if calls // n > last_epoch:
            mark(np.arange(len(live)))
            last_epoch = calls // n
        if keep_path:
            iterates[at, t] = x
        reset = resets and t % period == 0
        if reset:
            g, faults = full_gradients(problem, x, [members[r].counter for r in live])
            calls += n
            base = g
            if faults:
                faulted = np.zeros(len(live), dtype=bool)
                for k, exc in faults.items():
                    members[live[k]].outcome, faulted[k] = exc, True
                stop(faulted, t)
                if not live.size:
                    break
            g = base
        else:
            if exact:
                g = _exact_corrections(problem, block, h) + base
            else:
                if pos == draws.shape[1]:
                    draws = np.stack([members[r].refill() for r in live])
                    draws -= 1
                    pos = 0
                if resets:
                    pair[...] = draws[:, pos : pos + batch]
                    g = _corrections(problem, pair, block, h) + base
                else:
                    g = problem._gradients(draws[:, pos], x)
                pos += batch
            calls += cost
            sampled += cost
            if moving:
                base = g
        squares = _row_squares(g)
        if rule == "adaptive":
            eta, scale, offset = coeffs
            accum += squares
            gamma = eta / (scale * np.sqrt(offset + accum))
        elif rule == "eps":
            eps, lsn, cap = coeffs
            norm = np.sqrt(squares)
            denom = lsn * norm
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = eps / denom
            # Python's min(quotient, cap) takes cap only if cap < quotient
            gamma = np.where((norm == 0.0) | (denom == 0.0) | (cap < quotient), cap, quotient)
        else:
            (gamma,) = coeffs
        if moving or reset:
            h = 1 - h
        x = np.subtract(x, gamma[:, None] * g, out=block[h])
        if keep_path is True:
            step_sizes[at, t] = gamma
            estimates[at, t] = g
        if _diverged(x):
            diverged = ~(np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT)  # per row
            if not keep_path:
                mark(np.flatnonzero(diverged))
            stop(diverged, t + 1, diverged_at=t)
            if not live.size:
                break
    stop(np.ones(len(live), dtype=bool), steps)
    yield from (member.outcome for member in members)


def select_output(trace: RunTrace, rng: np.random.Generator):
    """Pick (uniform-random iterate, best-observed iterate) from a trace.

    Uniform sampling is over the recorded iterate snapshots; the best
    iterate minimizes the measured true gradient norm, earliest on ties.
    The non-finite terminal snapshot of a diverged run is never picked;
    the epoch-0 snapshot always precedes it.
    """
    points, rows = trace.epoch_points, trace.epoch_rows
    if trace.diverged:
        points, rows = points[:-1], rows[:-1]
    if not points:
        raise ValueError("trace has no recorded iterates")
    uniform_idx = int(rng.integers(len(points)))
    norms = np.array([row.grad_norm for row in rows])
    best_idx = int(np.argmin(norms))
    return points[uniform_idx], points[best_idx]

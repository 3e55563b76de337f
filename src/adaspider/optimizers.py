"""Variance-reduced and stochastic optimizers over a finite-sum oracle.

The centerpiece is the adaptive SPIDER run: the recursive estimator

    g_t = grad f_{i_t}(x_t) - grad f_{i_t}(x_{t-1}) + g_{t-1},

reset to the exact full gradient every ``period`` steps, driven by the
parameter-free step size

    gamma_t = 1 / (n^{1/4} * beta0 * sqrt(sqrt(n) * G0^2 + sum_{s<=t} ||g_s||^2)).

The accumulator includes the current ||g_t||^2, which is what bounds
every step length by 1/beta0. Baselines (SGD, AdaGrad-Norm, SVRG,
Spider, SpiderBoost) share the oracle accounting and trace format.

Each run is strictly sequential; independent runs may execute in
parallel with rng streams derived from distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteSumProblem, OracleCounter, as_param_vector, full_gradient

# Iterates beyond this magnitude (or any non-finite coordinate) abort the
# run; the trace records the step index instead of raising.
DIVERGENCE_LIMIT = 1e12


@dataclass
class SpiderEstimatorState:
    """State of the recursive gradient estimator.

    ``estimate`` is g_t for the last updated step, ``anchor_point`` the
    point where it was formed, ``grad_norm_accum`` the running sum of
    squared estimate norms (including the current one), and
    ``step_index`` the index of the next update.
    """

    period: int
    estimate: np.ndarray | None = None
    anchor_point: np.ndarray | None = None
    step_index: int = 0
    grad_norm_accum: float = 0.0

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("full-gradient period must be at least 1")


def _sampled_correction(
    problem: FiniteSumProblem,
    x: np.ndarray,
    anchor: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    counter: OracleCounter,
) -> np.ndarray:
    """Mean of grad f_i(x) - grad f_i(anchor) over ``batch_size`` components
    drawn uniformly with replacement (one rng draw); charges 2 per sample.

    The sum runs from zero in sampling order, adding each grad f_i(x) and
    subtracting each grad f_i(anchor). ``np.add.accumulate`` along the
    interleaved rows keeps exactly that order for every d; a plain axis-0
    sum does not once d == 1, where numpy switches to pairwise summation.
    """
    indices = rng.integers(problem.n, size=batch_size) + 1
    terms = np.zeros((2 * batch_size + 1, problem.d))
    terms[1::2] = problem.component_gradients(indices, x)
    np.negative(problem.component_gradients(indices, anchor), out=terms[2::2])
    counter.charge(2 * batch_size)
    return np.add.accumulate(terms, axis=0)[-1] / batch_size


def spider_estimator_update(
    state: SpiderEstimatorState,
    problem: FiniteSumProblem,
    x_t: np.ndarray,
    rng: np.random.Generator,
    counter: OracleCounter,
    batch_size: int = 1,
) -> np.ndarray:
    """Advance the estimator to x_t and return the new estimate.

    At reset steps (t mod period == 0) this is the exact full gradient
    and charges n calls. Otherwise the recursive correction samples
    ``batch_size`` components uniformly with replacement and charges two
    calls per sampled component; exactly one rng draw is consumed. A
    batch of n or more uses all components exactly once (the correction
    is then the exact full-gradient difference).
    """
    t = state.step_index
    n = problem.n
    if t % state.period == 0:
        estimate = full_gradient(problem, x_t, counter)
    elif batch_size >= n:
        diff = problem.mean_gradient(x_t) - problem.mean_gradient(state.anchor_point)
        counter.charge(2 * n)
        estimate = diff + state.estimate
    elif batch_size == 1:
        i = int(rng.integers(n)) + 1
        estimate = (
            problem.component_gradient(i, x_t)
            - problem.component_gradient(i, state.anchor_point)
            + state.estimate
        )
        counter.charge(2)
    else:
        estimate = (
            _sampled_correction(
                problem, x_t, state.anchor_point, batch_size, rng, counter
            )
            + state.estimate
        )
    state.estimate = estimate
    state.anchor_point = np.array(x_t, copy=True)
    state.grad_norm_accum += float(estimate @ estimate)
    state.step_index = t + 1
    return estimate


def adaspider_step_size(
    n: int, beta0: float, g0: float, accumulator: float
) -> float:
    """Adaptive step size; the accumulator must already include ||g_t||^2."""
    if accumulator < 0:
        raise ValueError("squared-norm accumulator cannot be negative")
    if n < 1:
        raise ValueError("component count must be positive")
    if beta0 <= 0 or g0 <= 0:
        raise ValueError("beta0 and G0 must be positive")
    return 1.0 / (n**0.25 * beta0 * math.sqrt(math.sqrt(n) * g0**2 + accumulator))


@dataclass
class AdaSpiderConfig:
    """Inputs of the adaptive run: x0 aside, only beta0, G0 and the budget.

    beta0 carries units of inverse parameters and G0 units of gradients;
    the defaults of 1 are the untuned, parameter-free setting. ``period``
    defaults to n; ``inner_batch`` averages that many sampled corrections
    per inner step (an extension, default 1).
    """

    steps: int
    beta0: float = 1.0
    g0: float = 1.0
    period: int | None = None
    inner_batch: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("step budget must be at least 1")
        if self.beta0 <= 0 or self.g0 <= 0:
            raise ValueError("beta0 and G0 must be positive")
        if self.period is not None and self.period < 1:
            raise ValueError("period must be at least 1 when given")
        if self.inner_batch < 1:
            raise ValueError("inner batch size must be at least 1")


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
    """Per-step log of one optimizer run plus per-epoch diagnostics.

    ``step_sizes``, ``estimator_norms`` and ``oracle_calls`` have one
    entry per executed step. Epoch rows (and their iterate snapshots in
    ``epoch_points``) are recorded at the top of a step whenever the
    charged-call count has completed another full pass, so every
    snapshot is one of x_0 .. x_{T-1}. ``iterates``/``estimates`` hold
    the full path when the run was asked to keep it.
    """

    algo: str
    step_sizes: np.ndarray
    estimator_norms: np.ndarray
    oracle_calls: np.ndarray
    epoch_rows: list[EpochRow]
    epoch_points: list[np.ndarray]
    x_final: np.ndarray
    diverged: bool = False
    diverged_at: int | None = None
    iterates: np.ndarray | None = None
    estimates: np.ndarray | None = None

    @property
    def num_steps(self) -> int:
        return len(self.step_sizes)


class _TraceBuilder:
    """Collects per-step records and epoch diagnostics during a run."""

    def __init__(
        self,
        problem: FiniteSumProblem,
        algo: str,
        counter: OracleCounter,
        keep_path: bool,
    ):
        self._problem = problem
        self._counter = counter
        self._keep_path = keep_path
        self.algo = algo
        self._step_sizes: list[float] = []
        self._est_norms: list[float] = []
        self._calls: list[int] = []
        self._rows: list[EpochRow] = []
        self._points: list[np.ndarray] = []
        self._iterates: list[np.ndarray] = []
        self._estimates: list[np.ndarray] = []
        self._last_epoch = -1
        self._last_gamma = 0.0
        self._diverged_at: int | None = None

    def step_start(self, x: np.ndarray) -> None:
        """Log an epoch row if the charged calls completed another full pass."""
        epoch = self._counter.component_calls // self._problem.n
        if epoch > self._last_epoch:
            self._rows.append(
                EpochRow(
                    epoch=epoch,
                    oracle_calls=self._counter.component_calls,
                    loss=self._problem.value(x),
                    grad_norm=float(
                        np.linalg.norm(self._problem.metric_gradient(x))
                    ),
                    step_size=self._last_gamma,
                )
            )
            self._points.append(np.array(x, copy=True))
            self._last_epoch = epoch
        if self._keep_path:
            self._iterates.append(np.array(x, copy=True))

    def record_step(
        self, gamma: float, estimate: np.ndarray, x_new: np.ndarray, t: int
    ) -> bool:
        """Record one completed step; returns False if the run must abort."""
        self._step_sizes.append(gamma)
        self._est_norms.append(float(np.linalg.norm(estimate)))
        self._calls.append(self._counter.component_calls)
        self._last_gamma = gamma
        if self._keep_path:
            self._estimates.append(np.array(estimate, copy=True))
        if not np.all(np.isfinite(x_new)) or np.max(np.abs(x_new)) > DIVERGENCE_LIMIT:
            self._diverged_at = t
            self._rows.append(
                EpochRow(
                    epoch=self._counter.component_calls // self._problem.n,
                    oracle_calls=self._counter.component_calls,
                    loss=float("inf"),
                    grad_norm=float("inf"),
                    step_size=gamma,
                )
            )
            self._points.append(np.array(x_new, copy=True))
            return False
        return True

    def finish(self, x_final: np.ndarray) -> RunTrace:
        return RunTrace(
            algo=self.algo,
            step_sizes=np.asarray(self._step_sizes),
            estimator_norms=np.asarray(self._est_norms),
            oracle_calls=np.asarray(self._calls, dtype=np.int64),
            epoch_rows=self._rows,
            epoch_points=self._points,
            x_final=np.array(x_final, copy=True),
            diverged=self._diverged_at is not None,
            diverged_at=self._diverged_at,
            iterates=np.stack(self._iterates) if self._iterates else None,
            estimates=np.stack(self._estimates) if self._estimates else None,
        )


def adaspider_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    config: AdaSpiderConfig,
    rng: np.random.Generator,
    *,
    keep_path: bool = False,
) -> RunTrace:
    """Run the adaptive variance-reduced method for ``config.steps`` steps.

    Per step: estimator update, accumulator update with the new squared
    norm, step size from the accumulator, then x <- x - gamma * g. One
    rng draw per inner step and none at reset steps, so a scalar
    re-implementation with the same rng reproduces the run exactly.
    """
    x = as_param_vector(x0, problem.d)
    period = config.period if config.period is not None else problem.n
    counter = OracleCounter()
    state = SpiderEstimatorState(period=period)
    trace = _TraceBuilder(problem, "adaspider", counter, keep_path)
    for t in range(config.steps):
        trace.step_start(x)
        estimate = spider_estimator_update(
            state, problem, x, rng, counter, batch_size=config.inner_batch
        )
        gamma = adaspider_step_size(
            problem.n, config.beta0, config.g0, state.grad_norm_accum
        )
        x = x - gamma * estimate
        if not trace.record_step(gamma, estimate, x, t):
            break
    return trace.finish(x)


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
    keep_path: bool = False,
) -> RunTrace:
    """Accuracy-dependent variant: same estimator, step size
    min(eps / (L sqrt(n) ||g_t||), 1 / (2 sqrt(n) L)).

    A zero estimator norm selects the constant branch. ``inner_batch``
    is an opaque mini-batch knob, default 1.
    """
    if epsilon <= 0:
        raise ValueError("target accuracy must be positive")
    if smoothness <= 0:
        raise ValueError("smoothness constant must be positive")
    if steps < 1:
        raise ValueError("step budget must be at least 1")
    x = as_param_vector(x0, problem.d)
    n = problem.n
    period = period if period is not None else n
    counter = OracleCounter()
    state = SpiderEstimatorState(period=period)
    trace = _TraceBuilder(problem, "spider", counter, keep_path)
    cap = 1.0 / (2.0 * math.sqrt(n) * smoothness)
    for t in range(steps):
        trace.step_start(x)
        estimate = spider_estimator_update(
            state, problem, x, rng, counter, batch_size=inner_batch
        )
        norm = float(np.linalg.norm(estimate))
        if norm == 0.0:
            gamma = cap
        else:
            gamma = min(epsilon / (smoothness * math.sqrt(n) * norm), cap)
        x = x - gamma * estimate
        if not trace.record_step(gamma, estimate, x, t):
            break
    return trace.finish(x)


def spiderboost_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    smoothness: float,
    steps: int,
    rng: np.random.Generator,
    *,
    period: int | None = None,
    batch_size: int | None = None,
    keep_path: bool = False,
) -> RunTrace:
    """Constant-step variant: full gradient every ceil(sqrt(n)) steps,
    mini-batched corrections of size ceil(sqrt(n)) in between, step 1/L.
    """
    if smoothness <= 0:
        raise ValueError("smoothness constant must be positive")
    if steps < 1:
        raise ValueError("step budget must be at least 1")
    x = as_param_vector(x0, problem.d)
    n = problem.n
    root = math.isqrt(n) if math.isqrt(n) ** 2 == n else math.isqrt(n) + 1
    period = period if period is not None else root
    batch = batch_size if batch_size is not None else root
    counter = OracleCounter()
    state = SpiderEstimatorState(period=period)
    trace = _TraceBuilder(problem, "spiderboost", counter, keep_path)
    gamma = 1.0 / smoothness
    for t in range(steps):
        trace.step_start(x)
        estimate = spider_estimator_update(
            state, problem, x, rng, counter, batch_size=batch
        )
        x = x - gamma * estimate
        if not trace.record_step(gamma, estimate, x, t):
            break
    return trace.finish(x)


def svrg_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    eta: float,
    epoch_length: int | None,
    steps: int,
    rng: np.random.Generator,
    *,
    inner_batch: int = 1,
    keep_path: bool = False,
) -> RunTrace:
    """Snapshot-corrected stochastic steps with constant step size.

    Every ``epoch_length`` steps the current iterate becomes the snapshot
    y with stored full gradient mu (charging n); that step moves along mu
    itself. Inner steps use grad f_i(x) - grad f_i(y) + mu averaged over
    ``inner_batch`` sampled components (charging 2 per sample).
    """
    if eta <= 0:
        raise ValueError("step size must be positive")
    if steps < 1:
        raise ValueError("step budget must be at least 1")
    if inner_batch < 1:
        raise ValueError("inner batch size must be at least 1")
    x = as_param_vector(x0, problem.d)
    m = epoch_length if epoch_length is not None else problem.n
    if m < 1:
        raise ValueError("epoch length must be at least 1")
    counter = OracleCounter()
    trace = _TraceBuilder(problem, "svrg", counter, keep_path)
    snapshot = x
    snapshot_grad = np.zeros(problem.d)
    for t in range(steps):
        trace.step_start(x)
        if t % m == 0:
            snapshot = np.array(x, copy=True)
            snapshot_grad = full_gradient(problem, snapshot, counter)
            corrected = snapshot_grad
        elif inner_batch == 1:
            i = int(rng.integers(problem.n)) + 1
            corrected = (
                problem.component_gradient(i, x)
                - problem.component_gradient(i, snapshot)
                + snapshot_grad
            )
            counter.charge(2)
        else:
            corrected = (
                _sampled_correction(problem, x, snapshot, inner_batch, rng, counter)
                + snapshot_grad
            )
        x = x - eta * corrected
        if not trace.record_step(eta, corrected, x, t):
            break
    return trace.finish(x)


def sgd_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    eta: float,
    steps: int,
    rng: np.random.Generator,
    *,
    keep_path: bool = False,
) -> RunTrace:
    """Plain stochastic gradient descent, one component per step."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    if steps < 1:
        raise ValueError("step budget must be at least 1")
    x = as_param_vector(x0, problem.d)
    counter = OracleCounter()
    trace = _TraceBuilder(problem, "sgd", counter, keep_path)
    for t in range(steps):
        trace.step_start(x)
        i = int(rng.integers(problem.n)) + 1
        grad = problem.component_gradient(i, x)
        counter.charge(1)
        x = x - eta * grad
        if not trace.record_step(eta, grad, x, t):
            break
    return trace.finish(x)


def adagrad_norm_run(
    problem: FiniteSumProblem,
    x0: np.ndarray,
    eta: float,
    b0: float,
    steps: int,
    rng: np.random.Generator,
    *,
    keep_path: bool = False,
) -> RunTrace:
    """Stochastic gradients scaled by the inverse root of their running
    squared-norm sum; the accumulator includes the current norm."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    if b0 <= 0:
        raise ValueError("norm offset b0 must be positive")
    if steps < 1:
        raise ValueError("step budget must be at least 1")
    x = as_param_vector(x0, problem.d)
    counter = OracleCounter()
    trace = _TraceBuilder(problem, "adagrad_norm", counter, keep_path)
    accum = 0.0
    for t in range(steps):
        trace.step_start(x)
        i = int(rng.integers(problem.n)) + 1
        grad = problem.component_gradient(i, x)
        counter.charge(1)
        accum += float(grad @ grad)
        gamma = eta / math.sqrt(b0**2 + accum)
        x = x - gamma * grad
        if not trace.record_step(gamma, grad, x, t):
            break
    return trace.finish(x)


def select_output(trace: RunTrace, rng: np.random.Generator):
    """Pick (uniform-random iterate, best-observed iterate) from a trace.

    Uniform sampling is over the recorded iterate snapshots; the best
    iterate minimizes the measured true gradient norm, earliest on ties.
    """
    if not trace.epoch_points:
        raise ValueError("trace has no recorded iterates")
    uniform_idx = int(rng.integers(len(trace.epoch_points)))
    norms = np.array([row.grad_norm for row in trace.epoch_rows])
    best_idx = int(np.argmin(norms))
    return trace.epoch_points[uniform_idx], trace.epoch_points[best_idx]


def closed_form_oracle_calls(steps: int, n: int, period: int, inner_cost: int = 2) -> int:
    """Charged calls of a periodic-reset run: n per reset plus
    ``inner_cost`` per inner step."""
    resets = -(-steps // period)  # number of t < steps with t % period == 0
    return n * resets + inner_cost * (steps - resets)

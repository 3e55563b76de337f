"""Variance-reduced and stochastic optimizers over a finite-sum oracle.

The centerpiece is the adaptive SPIDER run: the recursive estimator

    g_t = grad f_{i_t}(x_t) - grad f_{i_t}(x_{t-1}) + g_{t-1},

reset to the exact full gradient every ``period`` steps, driven by the
parameter-free step size

    gamma_t = 1 / (n^{1/4} * beta0 * sqrt(sqrt(n) * G0^2 + sum_{s<=t} ||g_s||^2)).

The accumulator includes the current ||g_t||^2, which is what bounds
every step length by 1/beta0.

Every method pairs one of three gradient estimators (stochastic, SVRG
snapshot, SPIDER) with one of four step rules (constant, AdaGrad-Norm, the
eps-tied SPIDER step, the AdaSpider step above), and all six run the one
step loop, ``_run_loop``, with the same oracle accounting and trace
format. Each method's ``_METHODS`` entry checks a run's arguments and
builds its :class:`_Method`; ``harness.ALGORITHMS`` lists the parameters.

Runs of any one method that share a step count, period and inner batch
can also step together as one (R, d) block of iterates,
:func:`lockstep_run`, with traces bitwise equal to the runs made one at a
time; each run keeps its own rng stream, oracle counter and step size,
and its arguments are checked as its run function checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteSumProblem,
    NonFiniteGradientError,
    OracleCounter,
    as_param_vector,
    full_gradient,
)

# Iterates beyond this magnitude (or any non-finite coordinate) abort the
# run; the trace records the step index instead of raising.
DIVERGENCE_LIMIT = 1e12


def _vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a float64 vector; bitwise equal to
    ``float(np.linalg.norm(v))``, which computes sqrt(v.dot(v)) for a real
    1-d array, without its argument handling."""
    return math.sqrt(v.dot(v))


def _diverged(x: np.ndarray) -> bool:
    """True if any coordinate is non-finite or beyond DIVERGENCE_LIMIT.

    One reduction: a NaN propagates through the maximum and fails the
    comparison, and an infinity exceeds the limit.
    """
    return not (np.maximum.reduce(np.abs(x)) <= DIVERGENCE_LIMIT)


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

    A single sample is one scalar draw and one
    ``component_gradient_difference``. For a larger batch the sum runs from
    zero in sampling order, adding each grad f_i(x) and subtracting each
    grad f_i(anchor).
    ``np.add.accumulate`` along the interleaved rows (:func:`_mean_difference`)
    keeps exactly that order for every d; a plain axis-0 sum does not once
    d == 1, where numpy switches to pairwise summation.
    """
    if batch_size == 1:
        i = int(rng.integers(problem.n)) + 1
        diff = problem.component_gradient_difference(i, x, anchor)
        counter.charge(2)
        return diff
    indices = rng.integers(problem.n, size=batch_size) + 1
    counter.charge(2 * batch_size)
    return _mean_difference(
        problem.component_gradients(indices, x), problem.component_gradients(indices, anchor)
    )


def _mean_difference(at_x: np.ndarray, at_anchor: np.ndarray) -> np.ndarray:
    """Mean over axis -2 of ``at_x - at_anchor``, summed from zero in
    sampling order: add each grad f_i(x), subtract each grad f_i(anchor)."""
    *lead, batch, d = at_x.shape
    terms = np.zeros((*lead, 2 * batch + 1, d))
    terms[..., 1::2, :] = at_x
    np.negative(at_anchor, out=terms[..., 2::2, :])
    return np.add.accumulate(terms, axis=-2)[..., -1, :] / batch


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
    is then the exact full-gradient difference). ``rng`` is a generator or
    a stand-in with its ``integers``, such as a run's :class:`_Draws`.
    """
    t = state.step_index
    n = problem.n
    if t % state.period == 0:
        estimate = full_gradient(problem, x_t, counter)
    elif batch_size >= n:
        diff = problem.mean_gradient(x_t) - problem.mean_gradient(state.anchor_point)
        counter.charge(2 * n)
        estimate = diff + state.estimate
    else:
        correction = _sampled_correction(
            problem, x_t, state.anchor_point, batch_size, rng, counter
        )
        estimate = correction + state.estimate
    state.estimate = estimate
    state.anchor_point = np.array(x_t, copy=True)
    state.grad_norm_accum += float(estimate @ estimate)
    state.step_index = t + 1
    return estimate


def _adaspider_constants(n: int, beta0: float, g0: float) -> tuple[float, float]:
    """The run-constant factors (n^{1/4} beta0, sqrt(n) G0^2) of the step size."""
    if n < 1:
        raise ValueError("component count must be positive")
    if beta0 <= 0 or g0 <= 0:
        raise ValueError("beta0 and G0 must be positive")
    return n**0.25 * beta0, math.sqrt(n) * g0**2


def adaspider_step_size(
    n: int, beta0: float, g0: float, accumulator: float
) -> float:
    """Adaptive step size; the accumulator must already include ||g_t||^2."""
    if accumulator < 0:
        raise ValueError("squared-norm accumulator cannot be negative")
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


def _run_loop(
    problem: FiniteSumProblem,
    algo: str,
    x0: np.ndarray,
    steps: int,
    counter: OracleCounter,
    estimate,
    step_size,
    keep_path: bool,
) -> RunTrace:
    """The one step loop of every method: g = estimate(x, t), gamma =
    step_size(g, ||g||), x <- x - gamma * g, for ``steps`` steps or until x
    diverges; ``estimate`` charges its oracle calls to ``counter``.

    At the top of a step an epoch row is logged if the charged calls have
    completed another full pass; a diverged iterate gets a last row with
    infinite loss and gradient norm, and ends the run.
    """
    n = problem.n
    x = as_param_vector(x0, problem.d)
    step_sizes, est_norms, calls, rows, points, iterates, estimates = ([] for _ in range(7))
    gamma, last_epoch, diverged_at = 0.0, -1, None

    def log_row(x, loss, grad_norm):
        # the row's step size is the last one taken
        done = counter.component_calls
        rows.append(EpochRow(done // n, done, loss, grad_norm, gamma))
        points.append(np.array(x, copy=True))

    for t in range(steps):
        epoch = counter.component_calls // n
        if epoch > last_epoch:
            loss = problem.value(x)
            log_row(x, loss, float(np.linalg.norm(problem.metric_gradient(x))))
            last_epoch = epoch
        if keep_path:
            iterates.append(np.array(x, copy=True))
        g = estimate(x, t)
        norm = _vector_norm(g)
        gamma = step_size(g, norm)
        x = x - gamma * g
        step_sizes.append(gamma)
        est_norms.append(norm)
        calls.append(counter.component_calls)
        if keep_path:
            estimates.append(np.array(g, copy=True))
        if _diverged(x):
            diverged_at = t
            log_row(x, float("inf"), float("inf"))
            break
    return RunTrace(
        algo=algo,
        step_sizes=np.asarray(step_sizes),
        estimator_norms=np.asarray(est_norms),
        oracle_calls=np.asarray(calls, dtype=np.int64),
        epoch_rows=rows,
        epoch_points=points,
        x_final=np.array(x, copy=True),
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
        iterates=np.stack(iterates) if iterates else None,
        estimates=np.stack(estimates) if estimates else None,
    )


@dataclass(frozen=True)
class _Method:
    """One run's arguments as both step loops read them, once checked.

    ``estimator`` is "stochastic" (one sampled gradient a step), "svrg" or
    "spider", with reset ``period`` and inner ``batch`` (both 1 for
    "stochastic"). ``rule`` names the step rule and ``coeffs`` holds its
    run constants:

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

    def costs(self, n: int) -> tuple[int, int, int]:
        """(period, calls per reset, calls per inner step) on n components:
        a stochastic step is a one-call reset, and a SPIDER batch of n or
        more takes the exact full-gradient difference, 2n calls."""
        if self.estimator == "stochastic":
            return 1, 1, 0
        batch = min(self.batch, n) if self.estimator == "spider" else self.batch
        return self.period, n, 2 * batch

    def index_draws(self, n: int) -> int:
        """The sample indices a whole run draws: ``batch`` per inner step,
        and none for a SPIDER batch of n or more, which takes the exact
        difference of full gradients."""
        if self.estimator == "stochastic":
            return self.steps
        if self.estimator == "spider" and self.batch >= n:
            return 0
        return (self.steps + (-self.steps // self.period)) * self.batch


# Each method's checks of its arguments, in the order and with the errors
# of its run function, which the lockstep groups make too.


def _check_eta(eta) -> None:
    if eta <= 0:
        raise ValueError("step size must be positive")


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
    problem: FiniteSumProblem, epsilon, smoothness, steps, period=None, inner_batch=1
) -> _Method:
    if epsilon <= 0:
        raise ValueError("target accuracy must be positive")
    if smoothness <= 0:
        raise ValueError("smoothness constant must be positive")
    period = _spider_period(period, problem.n)
    _check_batch(inner_batch)
    root_n = math.sqrt(problem.n)
    cap = 1.0 / (2.0 * root_n * smoothness)
    return _Method("spider", steps, period, inner_batch, "eps", (epsilon, smoothness * root_n, cap))


def _spiderboost_method(
    problem: FiniteSumProblem, smoothness, steps, period=None, batch_size=None
) -> _Method:
    if smoothness <= 0:
        raise ValueError("smoothness constant must be positive")
    root = ceil_sqrt(problem.n)
    period = _spider_period(period, root)
    batch = batch_size if batch_size is not None else root
    _check_batch(batch)
    return _Method("spider", steps, period, batch, "constant", (1.0 / smoothness,))


def _svrg_method(
    problem: FiniteSumProblem, eta, epoch_length, steps, inner_batch=1
) -> _Method:
    _check_eta(eta)
    _check_batch(inner_batch)
    m = epoch_length if epoch_length is not None else problem.n
    if m < 1:
        raise ValueError("epoch length must be at least 1")
    return _Method("svrg", steps, m, inner_batch, "constant", (eta,))


def _sgd_method(problem: FiniteSumProblem, eta, steps) -> _Method:
    _check_eta(eta)
    return _Method("stochastic", steps, 1, 1, "constant", (eta,))


def _adagrad_norm_method(problem: FiniteSumProblem, eta, b0, steps) -> _Method:
    _check_eta(eta)
    if b0 <= 0:
        raise ValueError("norm offset b0 must be positive")
    return _Method("stochastic", steps, 1, 1, "adaptive", (eta, 1.0, b0**2))


# A run draws its sample indices this many at a time, and a lockstep group
# writes out the step sizes and norms of this many steps at a time.
_DRAW_CHUNK = 1024
_RECORD_CHUNK = 256


class _Draws:
    """A run's sample indices, drawn from ``rng`` in chunks of
    ``rng.integers(n, size=k)``, which yields the values of k scalar draws
    in order and leaves the generator where they would. Chunks are whole
    batches and add up to at most the run's own ``total`` draws.
    :meth:`integers` serves them as the generator's would, one value or one
    batch at a time; :meth:`settle` leaves the generator where scalar draws
    of the values served so far would."""

    def __init__(self, rng: np.random.Generator, n: int, total: int, batch: int):
        self.rng, self.n, self.left = rng, n, total
        self.chunk = batch * max(1, _DRAW_CHUNK // batch)
        self.values = np.empty(0, dtype=np.int64)
        self.state, self.size, self.pos = None, 0, 0

    def refill(self) -> np.ndarray:
        """Draw and return the next chunk of ``size`` values."""
        self.size = min(self.chunk, self.left)
        self.left -= self.size
        self.state = self.rng.bit_generator.state
        return self.rng.integers(self.n, size=self.size)

    def integers(self, n: int, size: int | None = None):
        if self.pos == len(self.values):
            self.values, self.pos = self.refill(), 0
        pos = self.pos
        if size is None:
            self.pos += 1
            return self.values[pos]
        self.pos += size
        return self.values[pos : pos + size]

    def settle(self, served: int) -> None:
        """Rewind to before the current chunk and redraw its first ``served``
        values."""
        if served < self.size:
            self.rng.bit_generator.state = self.state
            self.rng.integers(self.n, size=served)


# The three estimators. Each returns estimate(x, t), which makes the step's
# rng draws and charges its oracle calls to ``counter``.


def _stochastic(problem: FiniteSumProblem, rng, counter: OracleCounter):
    """One uniformly drawn component gradient per step; charges 1."""

    def estimate(x, t):
        i = int(rng.integers(problem.n)) + 1
        grad = problem.component_gradient(i, x)
        counter.charge(1)
        return grad

    return estimate


def _svrg(problem: FiniteSumProblem, rng, counter: OracleCounter, epoch_length, inner_batch):
    """Every ``epoch_length`` steps the iterate becomes the snapshot y with
    stored full gradient mu (charging n), and the estimate is mu itself; in
    between, grad f_i(x) - grad f_i(y) + mu averaged over ``inner_batch``
    sampled components (charging 2 per sample)."""
    snapshot = snapshot_grad = None

    def estimate(x, t):
        nonlocal snapshot, snapshot_grad
        if t % epoch_length == 0:
            snapshot = np.array(x, copy=True)
            snapshot_grad = full_gradient(problem, snapshot, counter)
            return snapshot_grad
        correction = _sampled_correction(problem, x, snapshot, inner_batch, rng, counter)
        return correction + snapshot_grad

    return estimate


def _step_rule(method: _Method, state: SpiderEstimatorState | None):
    """``method``'s step rule for one run: step_size(g, ||g||) -> gamma."""
    if method.rule == "constant":
        (eta,) = method.coeffs
        return lambda g, norm: eta
    if method.rule == "eps":
        eps, lsn, cap = method.coeffs

        def step_size(g, norm):
            denom = lsn * norm
            if norm == 0.0 or denom == 0.0:  # eps / denom would be +inf
                return cap
            return min(eps / denom, cap)

        return step_size
    eta, scale, offset = method.coeffs
    if state is not None:  # the SPIDER estimator keeps the sum of squared norms
        return lambda g, norm: eta / (scale * math.sqrt(offset + state.grad_norm_accum))
    accum = 0.0

    def step_size(g, norm):
        nonlocal accum
        accum += float(g @ g)
        return eta / (scale * math.sqrt(offset + accum))

    return step_size


def _run(problem, algo: str, x0, rng, keep_path: bool, method: _Method) -> RunTrace:
    """One run of ``method`` on :func:`_run_loop`, charged to a new counter.
    Its sample indices come from :class:`_Draws`, which the run settles when
    it ends, so ``rng`` ends where the run's scalar draws leave it."""
    counter = OracleCounter()
    draws = _Draws(rng, problem.n, method.index_draws(problem.n), method.batch)
    state = None
    if method.estimator == "stochastic":
        estimate = _stochastic(problem, draws, counter)
    elif method.estimator == "svrg":
        estimate = _svrg(problem, draws, counter, method.period, method.batch)
    else:
        state, batch = SpiderEstimatorState(period=method.period), method.batch

        def estimate(x, t):
            return spider_estimator_update(state, problem, x, draws, counter, batch_size=batch)

    step_size = _step_rule(method, state)
    try:
        return _run_loop(problem, algo, x0, method.steps, counter, estimate, step_size, keep_path)
    finally:
        draws.settle(draws.pos)


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
    method = _adaspider_method(problem, config)
    return _run(problem, "adaspider", x0, rng, keep_path, method)


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

    A zero estimator norm, or a denominator that underflows to zero,
    selects the constant branch. ``inner_batch`` is an opaque mini-batch
    knob, default 1.
    """
    method = _spider_method(problem, epsilon, smoothness, steps, period, inner_batch)
    return _run(problem, "spider", x0, rng, keep_path, method)


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
    keep_path: bool = False,
) -> RunTrace:
    """Constant-step variant: full gradient every ceil(sqrt(n)) steps,
    mini-batched corrections of size ceil(sqrt(n)) in between, step 1/L.
    """
    method = _spiderboost_method(problem, smoothness, steps, period, batch_size)
    return _run(problem, "spiderboost", x0, rng, keep_path, method)


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
    """Snapshot-corrected stochastic steps (:func:`_svrg`, epoch length n
    by default) with constant step size ``eta``."""
    method = _svrg_method(problem, eta, epoch_length, steps, inner_batch)
    return _run(problem, "svrg", x0, rng, keep_path, method)


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
    return _run(problem, "sgd", x0, rng, keep_path, _sgd_method(problem, eta, steps))


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
    method = _adagrad_norm_method(problem, eta, b0, steps)
    return _run(problem, "adagrad_norm", x0, rng, keep_path, method)


# Every method's runs can step together in :func:`lockstep_run`, which
# checks each run's arguments with its method's entry here.
_METHODS = {
    "adaspider": _adaspider_method,
    "spider": _spider_method,
    "spiderboost": _spiderboost_method,
    "svrg": _svrg_method,
    "sgd": _sgd_method,
    "adagrad_norm": _adagrad_norm_method,
}


def _row_squares(rows: np.ndarray) -> np.ndarray:
    """``v.dot(v)`` for every row v of a (R, d) block: one stacked
    ``np.matmul``, which takes the same dot per row."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """:func:`_vector_norm` of every row of a (R, d) block, bitwise."""
    return np.sqrt(_row_squares(rows))


def lockstep_run(
    problem: FiniteSumProblem, algo: str, runs: list, *, keep_path: bool | str = False
) -> list:
    """R runs of one method stepped together as one (R, d) iterate block.

    ``algo`` is a key of ``_METHODS``, and ``runs`` holds the keyword
    arguments of R calls of ``<algo>_run`` with the same step count,
    period and inner batch; each call's arguments are checked, in order,
    as that call checks them. Returns, in order, what each call with
    ``keep_path`` would: its RunTrace, equal field for field and bit for
    bit, or the NonFiniteGradientError it would raise. ``keep_path`` may
    also be "iterates", which keeps the iterates and leaves ``estimates``
    None, for a caller that reads only the iterates of long runs: the
    group holds every member's path at once, 8 bytes per coordinate and
    step for each of the two.

    Every member keeps its own rng, counter and step size. Its sample
    indices come in chunks from a :class:`_Draws`, settled when the member
    stops. SVRG and SPIDER share one inner step, grad f_i(x) - grad
    f_i(anchor) + base: SVRG's anchor and base are its snapshot and the
    snapshot's gradient, SPIDER's the previous iterate and estimate. A
    SPIDER batch of n or more takes the exact difference of full gradients
    instead and draws nothing. A member
    stops on its own when it diverges or its reset gradient is not
    finite; the others step on. Reset gradients go through
    ``full_gradient`` one member at a time and charge its counter there;
    the sampled steps' calls are charged when the member stops.
    """
    if algo not in _METHODS:
        raise ValueError(f"{algo} does not run in lockstep")
    methods, x0s = [], []
    for kw in runs:
        args = {key: value for key, value in kw.items() if key not in ("x0", "rng")}
        methods.append(_METHODS[algo](problem, **args))
        x0s.append(as_param_vector(kw["x0"], problem.d))
    if not runs:
        return []
    if len({(m.steps, m.period, m.batch) for m in methods}) > 1:
        raise ValueError("lockstep runs must share steps, period and inner batch")
    method = methods[0]
    steps, period, batch, rule = method.steps, method.period, method.batch, method.rule
    n, d, size = problem.n, problem.d, len(runs)
    resets = method.estimator != "stochastic"
    moving = method.estimator == "spider"  # the anchor is the last iterate
    exact = moving and batch >= n
    _, reset_cost, inner_cost = method.costs(n)
    cost = inner_cost if resets else reset_cost  # per sampled step; a stochastic one is a reset

    sources = [_Draws(kw["rng"], n, method.index_draws(n), batch) for kw in runs]
    counters = [OracleCounter() for _ in runs]
    outcomes: list = [None] * size
    rows, points = [[] for _ in runs], [[] for _ in runs]
    step_sizes, est_norms = np.empty((size, steps)), np.empty((size, steps))
    oracle_calls = np.empty(steps, dtype=np.int64)
    iterates = np.empty((size, steps, d)) if keep_path else None
    estimates = np.empty((size, steps, d)) if keep_path is True else None
    # Per-row state, one row per member still stepping; ``live`` maps rows
    # to members, in member order.
    live = np.arange(size)
    x = np.stack(x0s)
    coeffs = np.array([m.coeffs for m in methods])
    accum = np.zeros(size)
    gamma = np.zeros(size)  # the last step size, as epoch rows log it
    draws = np.empty((size, 0), dtype=np.int64)
    anchor = base = x
    gammas, norms = [], []  # of the steps after the first ``recorded``
    calls = sampled = pos = recorded = 0
    last_epoch = -1

    def log_rows(which, losses, grad_norms):
        for k, loss, grad_norm in zip(which, losses, grad_norms):
            r = live[k]
            rows[r].append(EpochRow(calls // n, calls, loss, grad_norm, float(gamma[k])))
            points[r].append(np.array(x[k], copy=True))

    def record():
        nonlocal recorded
        taken = recorded + len(gammas)
        step_sizes[live, recorded:taken] = np.stack(gammas, axis=1)
        est_norms[live, recorded:taken] = np.stack(norms, axis=1)
        recorded = taken
        gammas.clear()
        norms.clear()

    def stop(mask, diverged_at=None):
        """End the runs of the masked rows and drop those rows."""
        nonlocal live, x, coeffs, accum, gamma, draws, anchor, base
        if gammas:
            record()
        for k in np.flatnonzero(mask):
            r = live[k]
            counters[r].charge(sampled)
            sources[r].settle(pos)
            if outcomes[r] is None:
                outcomes[r] = RunTrace(
                    algo=algo,
                    step_sizes=step_sizes[r, :recorded],
                    estimator_norms=est_norms[r, :recorded],
                    oracle_calls=oracle_calls[:recorded],
                    epoch_rows=rows[r],
                    epoch_points=points[r],
                    x_final=np.array(x[k], copy=True),
                    diverged=diverged_at is not None,
                    diverged_at=diverged_at,
                    iterates=None if iterates is None else iterates[r, :recorded],
                    estimates=None if estimates is None else estimates[r, :recorded],
                )
        keep = ~mask
        live, x, coeffs, accum, gamma, draws, anchor, base = (
            a[keep] for a in (live, x, coeffs, accum, gamma, draws, anchor, base)
        )

    for t in range(steps):
        if calls // n > last_epoch:
            grad_norms = _row_norms(problem.metric_gradients(x)).tolist()
            log_rows(range(len(live)), [problem.value(p) for p in x], grad_norms)
            last_epoch = calls // n
        if iterates is not None:
            iterates[live, t] = x
        if resets and t % period == 0:
            g = np.empty_like(x)
            faulted = np.zeros(len(live), dtype=bool)
            for k, r in enumerate(live):
                try:
                    g[k] = full_gradient(problem, x[k], counters[r])
                except NonFiniteGradientError as exc:
                    outcomes[r], faulted[k] = exc, True
            calls += n
            anchor, base = x, g
            if faulted.any():
                stop(faulted)
                if not live.size:
                    break
            g = base
        else:
            if exact:  # as spider_estimator_update: two full gradients
                both = problem.mean_gradients(np.concatenate([x, anchor]))
                g = (both[: len(live)] - both[len(live) :]) + base
            else:
                if pos == draws.shape[1]:
                    draws = np.stack([sources[r].refill() for r in live]) + 1
                    pos = 0
                indices = draws[:, pos : pos + batch]
                pos += batch
                if not resets:
                    g = problem.component_gradients(indices[:, 0], x)
                else:
                    # the samples at the iterates and at the anchors, in one call
                    at = np.repeat(np.concatenate([x, anchor]), batch, axis=0)
                    flat = indices.ravel()
                    both = problem.component_gradients(np.concatenate((flat, flat)), at)
                    at_x, at_anchor = both.reshape(2, len(live), batch, d)
                    if batch == 1:  # as _sampled_correction: one difference
                        g = (at_x[:, 0] - at_anchor[:, 0]) + base
                    else:
                        g = _mean_difference(at_x, at_anchor) + base
            calls += cost
            sampled += cost
            if moving:
                anchor, base = x, g
        if estimates is not None:
            estimates[live, t] = g
        squares = _row_squares(g)
        norm = np.sqrt(squares)
        if rule == "adaptive":
            accum += squares
            gamma = coeffs[:, 0] / (coeffs[:, 1] * np.sqrt(coeffs[:, 2] + accum))
        elif rule == "eps":
            eps, lsn, cap = coeffs.T
            denom = lsn * norm
            with np.errstate(divide="ignore", invalid="ignore"):
                quotient = eps / denom
            # Python's min(quotient, cap) takes cap only if cap < quotient
            gamma = np.where((norm == 0.0) | (denom == 0.0) | (cap < quotient), cap, quotient)
        else:
            gamma = coeffs[:, 0]
        x = x - gamma[:, None] * g
        gammas.append(gamma)
        norms.append(norm)
        oracle_calls[t] = calls
        if len(gammas) == _RECORD_CHUNK:
            record()
        if not np.abs(x).max() <= DIVERGENCE_LIMIT:  # as in _diverged, per row
            diverged = ~(np.abs(x).max(axis=1) <= DIVERGENCE_LIMIT)
            which = np.flatnonzero(diverged)
            log_rows(which, [math.inf] * len(which), [math.inf] * len(which))
            stop(diverged, diverged_at=t)
            if not live.size:
                break
    stop(np.ones(len(live), dtype=bool))
    return outcomes


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

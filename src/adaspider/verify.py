"""Numerical verification of the analysis behind the adaptive method.

Each checker evaluates one inequality: exactly by enumeration where the
expectation is finite (estimator variance recursion), deterministically
per trace (step-length and trajectory growth bounds), or by seeded
Monte-Carlo (cumulative and weighted variance, rate scaling). Checkers
return a :class:`LemmaReport` and never assert; the caller decides what
a failure means.

Every checker accepts a right-hand-side scale factor (``rhs_factor`` or
an explicit threshold) whose only purpose is self-testing the harness:
corrupting the inequality must make the checker fail loudly.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .core import FiniteSumProblem
from .data import generate_synthetic
from .optimizers import (
    AdaSpiderConfig, RunTrace, _adaspider_method, _row_norms, _row_squares, adaspider_run,
    lockstep_run,
)
from .problems import QuadraticProblem, RegularizedERM

_SLACK = 1e-12


@dataclass
class LemmaReport:
    """Outcome of one checker: pass iff no trial violated the inequality."""

    lemma: str
    trials: int
    violations: int
    worst_margin: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "pass": self.passed,
            "detail": self.detail,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _report(lemma: str, margins, slack: float, detail: str = "") -> LemmaReport:
    margins = np.asarray(margins, dtype=np.float64)
    violations = int(np.sum(margins < -slack))
    worst = float(margins.min()) if margins.size else 0.0
    return LemmaReport(
        lemma=lemma,
        trials=int(margins.size),
        violations=violations,
        worst_margin=worst,
        passed=violations == 0,
        detail=detail,
    )


def _validate_alphas(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-d sequence")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("sequence entries must be non-negative and finite")
    return a


def check_sqrt_lemma(alphas, *, rhs_factor: float = 1.0, slack: float = _SLACK) -> LemmaReport:
    """sqrt(sum a_t) <= sum a_t / sqrt(prefix-sum through t), with 0/0 := 0."""
    a = _validate_alphas(alphas)
    prefix = np.cumsum(a)
    lhs = math.sqrt(prefix[-1]) if a.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(prefix > 0, a / np.sqrt(prefix), 0.0)
    rhs = float(terms.sum())
    return _report(
        "sqrt_sum",
        [rhs_factor * rhs - lhs],
        slack,
        detail=f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}",
    )


def check_log_lemma(alphas, *, rhs_factor: float = 1.0, slack: float = _SLACK) -> LemmaReport:
    """sum a_t / (1 + prefix-sum through t) <= log(1 + sum a_t)."""
    a = _validate_alphas(alphas)
    prefix = np.cumsum(a)
    lhs = float((a / (1.0 + prefix)).sum()) if a.size else 0.0
    rhs = math.log1p(prefix[-1]) if a.size else 0.0
    return _report(
        "log_sum",
        [rhs_factor * rhs - lhs],
        slack,
        detail=f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}",
    )


def _sweep_scalar_lemma(
    check,
    lemma: str,
    trials: int,
    rng: np.random.Generator,
    max_len: int,
    max_value: float,
    rhs_factor: float,
) -> LemmaReport:
    margins = []
    worst_detail = ""
    for trial in range(trials):
        length = int(rng.integers(1, max_len + 1))
        # downscale by a random power so magnitudes vary but stay <= max_value
        scale = 10.0 ** float(rng.uniform(-6.0, 0.0))
        alphas = scale * rng.uniform(0.0, max_value, size=length)
        single = check(alphas, rhs_factor=rhs_factor)
        if not margins or single.worst_margin < min(margins):
            worst_detail = f"worst trial {trial}: {single.detail}"
        margins.append(single.worst_margin)
    return _report(
        lemma, margins, _SLACK, detail=f"lengths <= {max_len}; {worst_detail}"
    )


def sweep_sqrt_lemma(
    trials: int,
    rng: np.random.Generator,
    *,
    max_len: int = 100,
    max_value: float = 1e3,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    return _sweep_scalar_lemma(
        check_sqrt_lemma, "sqrt_sum", trials, rng, max_len, max_value, rhs_factor
    )


def sweep_log_lemma(
    trials: int,
    rng: np.random.Generator,
    *,
    max_len: int = 100,
    max_value: float = 1e3,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    return _sweep_scalar_lemma(
        check_log_lemma, "log_sum", trials, rng, max_len, max_value, rhs_factor
    )


def check_variance_recursion(
    problem: FiniteSumProblem,
    x: np.ndarray,
    y: np.ndarray,
    grad_y_dist,
    *,
    rhs_factor: float = 1.0,
    slack: float = _SLACK,
    max_enumeration: int = 10000,
) -> LemmaReport:
    """One-step estimator variance recursion, both sides exact.

    For g_x = grad f_i(x) - grad f_i(y) + g_y with i uniform and g_y
    distributed per ``grad_y_dist`` (pairs of (vector, probability)):

        E||g_x - grad f(x)||^2 <= L^2 ||x - y||^2 + E||g_y - grad f(y)||^2.

    Expectations are enumerated over all n choices of i and all g_y
    outcomes; L must be the problem's known smoothness constant.
    """
    if problem.known_smoothness is None:
        raise ValueError("variance recursion needs the instance smoothness constant")
    if problem.n > 20:
        raise ValueError(f"enumeration over n={problem.n} components refused (max 20)")
    outcomes = [(np.asarray(v, dtype=np.float64), float(p)) for v, p in grad_y_dist]
    if problem.n * len(outcomes) > max_enumeration:
        raise ValueError("enumeration too large")
    total_p = sum(p for _, p in outcomes)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total_p}, not 1")

    grad_x = problem.mean_gradient(x)
    grad_y = problem.mean_gradient(y)
    all_components = np.arange(1, problem.n + 1)
    diffs = problem.component_gradients(all_components, x)
    diffs -= problem.component_gradients(all_components, y)
    lhs = 0.0
    rhs_var = 0.0
    for v, p in outcomes:
        for diff in diffs:
            dev = diff + v - grad_x
            lhs += p / problem.n * float(dev @ dev)
        dev_y = v - grad_y
        rhs_var += p * float(dev_y @ dev_y)
    l2 = problem.known_smoothness**2
    rhs = l2 * float(np.sum((x - y) ** 2)) + rhs_var
    return _report(
        "variance_recursion",
        [rhs_factor * rhs - lhs],
        slack,
        detail=f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}",
    )


def sweep_variance_recursion(
    trials: int,
    rng: np.random.Generator,
    *,
    max_n: int = 10,
    max_d: int = 3,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    """Random small quadratic instances with exact smoothness constants.

    Half the trials use an exact anchor estimator (g_y = grad f(y)); the
    other half use the one-step estimator distribution from a third
    point, which has genuine variance.
    """
    margins = []
    worst_detail = ""
    for trial in range(trials):
        n = int(rng.integers(1, max_n + 1))
        d = int(rng.integers(1, max_d + 1))
        problem = QuadraticProblem.random(n, d, rng)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        if trial % 2 == 0:
            dist = [(problem.mean_gradient(y), 1.0)]
        else:
            z = rng.standard_normal(d)
            grad_z = problem.mean_gradient(z)
            all_components = np.arange(1, n + 1)
            outcomes = (
                problem.component_gradients(all_components, y)
                - problem.component_gradients(all_components, z)
                + grad_z
            )
            dist = [(outcome, 1.0 / n) for outcome in outcomes]
        single = check_variance_recursion(problem, x, y, dist, rhs_factor=rhs_factor)
        if not margins or single.worst_margin < min(margins):
            worst_detail = f"worst trial {trial}: {single.detail}"
        margins.append(single.worst_margin)
    return _report(
        "variance_recursion",
        margins,
        _SLACK,
        detail=f"exact enumeration on quadratics; {worst_detail}",
    )


def check_trajectory_bound(
    trace: RunTrace,
    problem: FiniteSumProblem,
    beta0: float,
    *,
    rhs_factor: float = 1.0,
    slack: float = _SLACK,
) -> LemmaReport:
    """Step-length bound and squared-estimator-norm growth bound.

    (a) Every step length gamma_t ||g_t|| is at most 1/beta0.
    (b) sum_t ||g_t||^2 is at most
        2 L^2 n^2 T / beta0^2 + 2 L^2 T^3 / beta0^2
        + 4 L T^2 ||grad f(x_0)|| / beta0 + 2 T ||grad f(x_0)||^2.
    """
    if problem.known_smoothness is None:
        raise ValueError("trajectory bound needs the instance smoothness constant")
    if not trace.epoch_rows:
        raise ValueError("trace has no diagnostics rows")
    margins = []
    step_lengths = trace.step_sizes * trace.estimator_norms
    for length in step_lengths:
        margins.append(rhs_factor / beta0 - float(length))
    smoothness = problem.known_smoothness
    t_total = trace.num_steps
    grad0 = trace.epoch_rows[0].grad_norm
    lhs = float(np.sum(trace.estimator_norms**2))
    rhs = (
        2.0 * smoothness**2 * problem.n**2 * t_total / beta0**2
        + 2.0 * smoothness**2 * t_total**3 / beta0**2
        + 4.0 * smoothness * t_total**2 * grad0 / beta0
        + 2.0 * t_total * grad0**2
    )
    margins.append(rhs_factor * rhs - lhs)
    return _report(
        "trajectory_bound",
        margins,
        slack,
        detail=(
            f"{t_total} step lengths (cap {1.0 / beta0:.3e}) and growth bound "
            f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}"
        ),
    )


def sweep_trajectory_bound(
    runs: int,
    rng: np.random.Generator,
    *,
    steps: int = 50,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    """Adaptive runs on random small quadratics, both bounds per run."""
    margins = []
    violations = 0
    worst_detail = ""
    for run in range(runs):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        problem = QuadraticProblem.random(n, d, rng, definite=bool(rng.integers(2)))
        x0 = rng.standard_normal(d)
        trace = adaspider_run(
            problem, x0, AdaSpiderConfig(steps=steps), np.random.default_rng(rng.integers(2**32))
        )
        rep = check_trajectory_bound(trace, problem, 1.0, rhs_factor=rhs_factor)
        if not margins or rep.worst_margin < min(margins):
            worst_detail = f"worst run {run}: {rep.detail}"
        margins.append(rep.worst_margin)
        violations += rep.violations
    report = _report(
        "trajectory_bound", margins, _SLACK, detail=f"{runs} seeded runs; {worst_detail}"
    )
    report.violations = violations
    report.passed = violations == 0
    return report


# A lockstep block of seeded runs keeps every run's stored path (up to 16
# bytes per coordinate and step) until its last trace is taken, so a block
# holds at most this many path coordinates, ~64 MB.
_SEED_BLOCK_COORDS = 1 << 22


def _seeded_runs(problem: FiniteSumProblem, x0: np.ndarray, config, seeds, keep_path):
    """The traces of ``adaspider_run(problem, x0, config,
    np.random.default_rng(seed), keep_path=True)`` for each seed, in order,
    without ``estimates`` when ``keep_path`` is "iterates".

    The runs step together in :func:`lockstep_run` blocks of up to
    _SEED_BLOCK_COORDS path coordinates, one block for the suite's own
    checks; a run's error is raised at its turn, as the runs made one at a
    time would raise it. The config is checked first, as every run checks it.
    """
    seeds = list(seeds)
    size = max(1, _SEED_BLOCK_COORDS // (_adaspider_method(problem, config).steps * problem.d))
    for start in range(0, len(seeds), size):
        runs = [
            dict(x0=x0, config=config, rng=np.random.default_rng(seed))
            for seed in seeds[start : start + size]
        ]
        for outcome in lockstep_run(problem, "adaspider", runs, keep_path=keep_path):
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome


# Per problem, held weakly, the key and result of its last _variance_traces call.
_variance_runs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _variance_traces(problem: FiniteSumProblem, config, seeds: tuple, x0) -> list:
    """Per seed, the step sizes, squared deviations ||g_t - grad f(x_t)||^2
    and estimator norms of the seeded runs both variance checks read; the
    last result is kept, so the two checks of one suite share their runs."""
    key = (replace(config), seeds, np.asarray(x0, dtype=np.float64).tobytes())
    last = _variance_runs.get(problem)
    if last is None or last[0] != key:
        traces = []
        for trace in _seeded_runs(problem, x0, config, seeds, True):
            devs = trace.estimates - problem.mean_gradients(trace.iterates)
            traces.append((trace.step_sizes, _row_squares(devs), trace.estimator_norms))
        last = _variance_runs[problem] = (key, traces)
    return last[1]


def _variance_check(
    lemma: str, weight_power: int, problem, config, seeds, x0, rhs_factor
) -> LemmaReport:
    """Both Monte-Carlo variance checks, from per-seed (lhs, rhs) sums.

    weight_power 0: plain sums against L^2 n sum gamma^2 ||g||^2.
    weight_power 1: gamma-weighted sums against L^2 n sum gamma^3 ||g||^2.
    The bound holds if mean(rhs_factor * rhs - lhs) + 3 stderr >= 0.
    """
    seeds = tuple(seeds)
    if len(seeds) < 50:
        raise ValueError(
            f"{len(seeds)} seeds is statistically meaningless here; use at least 50"
        )
    if problem.known_smoothness is None:
        raise ValueError("variance bounds need the instance smoothness constant")
    if x0 is None:
        x0 = np.zeros(problem.d)
    l2n = problem.known_smoothness**2 * problem.n
    diffs = np.empty(len(seeds))
    for k, (gammas, squares, norms) in enumerate(_variance_traces(problem, config, seeds, x0)):
        lhs = 0.0
        for gamma, square in zip(gammas, squares):
            lhs += gamma**weight_power * square
        rhs = l2n * float(np.sum(gammas ** (2 + weight_power) * norms**2))
        diffs[k] = rhs_factor * rhs - lhs
    mean = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    margin = mean + 3.0 * stderr
    return LemmaReport(
        lemma=lemma,
        trials=len(seeds),
        violations=0 if margin >= 0 else 1,
        worst_margin=margin,
        passed=margin >= 0,
        detail=f"mean margin {mean:.3e}, stderr {stderr:.3e}, {len(seeds)} seeds",
    )


def check_cumulative_variance(
    problem: FiniteSumProblem,
    config: AdaSpiderConfig,
    seeds,
    *,
    x0: np.ndarray | None = None,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    """Monte-Carlo check of the cumulative variance bound

        sum_t E||g_t - grad f(x_t)||^2 <= L^2 n sum_t E[gamma_t^2 ||g_t||^2],

    asserted within three standard errors over the seeded runs."""
    return _variance_check(
        "cumulative_variance", 0, problem, config, seeds, x0, rhs_factor
    )


def check_weighted_variance(
    problem: FiniteSumProblem,
    config: AdaSpiderConfig,
    seeds,
    *,
    x0: np.ndarray | None = None,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    """Monte-Carlo check of the step-size-weighted variance bound

        E[sum_t gamma_t ||g_t - grad f(x_t)||^2] <= L^2 n E[sum_t gamma_t^3 ||g_t||^2],

    asserted within three standard errors over the seeded runs."""
    return _variance_check(
        "weighted_variance", 1, problem, config, seeds, x0, rhs_factor
    )


# Rows of true gradients evaluated per batched call along a stored path;
# bounds the per-element sigmoid temporaries of the logistic family.
_PATH_BLOCK = 256


def _path_gradient_norms(problem: FiniteSumProblem, iterates: np.ndarray) -> np.ndarray:
    """||grad f(x_t)|| at every row of a stored (T, d) path.

    The true gradients come in blocks of _PATH_BLOCK rows, so the
    temporaries stay bounded while the caller holds the paths of every
    seed of its lockstep block.
    """
    norms = np.empty(len(iterates))
    for start in range(0, len(iterates), _PATH_BLOCK):
        block = problem.metric_gradients(iterates[start : start + _PATH_BLOCK])
        norms[start : start + len(block)] = _row_norms(block)
    return norms


def check_rate_scaling(
    problem: FiniteSumProblem,
    t_grid,
    seeds,
    *,
    beta0: float = 1.0,
    g0: float = 1.0,
    slope_threshold: float = -0.35,
    x0: np.ndarray | None = None,
) -> LemmaReport:
    """Fit log(time-averaged true gradient norm) against log T.

    The per-seed slope over the budget grid must have median at most
    ``slope_threshold`` (the target decay is -1/2 up to a slowly growing
    factor; the default threshold is an engineering tolerance).

    Each seed runs once, for the largest budget, and budget T averages
    the true gradient norms at the first T iterates. This is exactly the
    run with budget T: the adaptive step size uses no horizon, so the rng
    draws and steps do not depend on the budget, and a run that diverges
    at step t stops there under every budget above t. The seeds' runs
    step together as one lockstep block.
    """
    t_grid = [int(t) for t in t_grid]
    if len(t_grid) < 3:
        raise ValueError("rate fit needs at least 3 budget grid points")
    if sorted(t_grid) != t_grid or len(set(t_grid)) != len(t_grid):
        raise ValueError("budget grid must be strictly increasing")
    if t_grid[0] < 1:
        raise ValueError("step budget must be at least 1")
    if x0 is None:
        x0 = np.zeros(problem.d)
    config = AdaSpiderConfig(steps=t_grid[-1], beta0=beta0, g0=g0)
    slopes = []
    for trace in _seeded_runs(problem, x0, config, seeds, "iterates"):
        norms = _path_gradient_norms(problem, trace.iterates)
        means = []
        for t_budget in t_grid:
            mean_norm = float(norms[:t_budget].mean())
            if mean_norm <= 0.0:
                raise ValueError(
                    "degenerate instance: zero mean gradient norm, no fit possible"
                )
            means.append(mean_norm)
        slope = float(np.polyfit(np.log(t_grid), np.log(means), 1)[0])
        slopes.append(slope)
    median_slope = float(np.median(slopes))
    margin = slope_threshold - median_slope
    return LemmaReport(
        lemma="rate_scaling",
        trials=len(slopes),
        violations=0 if margin >= 0 else 1,
        worst_margin=margin,
        passed=margin >= 0,
        detail=f"median slope {median_slope:.3f} over {len(slopes)} seeds, "
        f"threshold {slope_threshold}",
    )


def default_rate_problem(seed: int = 0) -> RegularizedERM:
    """The fixed synthetic logistic instance used by the rate suite."""
    dataset = generate_synthetic("separable-logistic", n=64, d=10, seed=seed)
    return RegularizedERM(dataset, loss_kind="logistic", lam=0.1)


def default_variance_problem(seed: int = 0) -> QuadraticProblem:
    """The small quadratic family used by the variance suites."""
    return QuadraticProblem.random(4, 2, np.random.default_rng(seed), definite=True)

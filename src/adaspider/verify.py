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

The checks hand whole stored paths to the batched true-gradient calls
(``mean_gradients``, ``metric_gradients``, ``metric_gradient_norms``).
The problem family bounds their temporaries itself: the ERM family
evaluates them in chunks.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .core import FiniteSumProblem, _row_squares
from .data import generate_synthetic
from .optimizers import AdaSpiderConfig, RunTrace, _adaspider_method, adaspider_run, lockstep_run
from .problems import QuadraticProblem, RegularizedERM

_SLACK = 1e-12  # how far below zero a margin may be and still pass
_MAX_ENUMERATION = 10000  # (component, outcome) pairs the recursion enumerates
_MAX_LEN, _MAX_VALUE = 100, 1e3  # longest sequence and largest entry, scalar sweeps
_MAX_N, _MAX_D = 10, 3  # largest n and d of the recursion sweep's instances
_TRAJECTORY_STEPS = 50  # steps of each run of the trajectory sweep


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


def _report(
    lemma: str, trials: int, violations: int, worst_margin: float, detail: str
) -> LemmaReport:
    """The one way a checker builds its report: pass iff no violation."""
    return LemmaReport(lemma, trials, violations, worst_margin, violations == 0, detail)


def _margins_report(lemma: str, margins, detail: str) -> LemmaReport:
    """One trial per margin; a margin below -_SLACK is a violation."""
    margins = np.asarray(margins, dtype=np.float64)
    violations = int(np.sum(~(margins >= -_SLACK)))  # a NaN margin is a violation
    return _report(lemma, margins.size, violations, float(margins.min()), detail)


def _validate_alphas(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("expected a 1-d sequence")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("sequence entries must be non-negative and finite")
    return a


def check_sqrt_lemma(alphas, *, rhs_factor: float = 1.0) -> LemmaReport:
    """sqrt(sum a_t) <= sum a_t / sqrt(prefix-sum through t), with 0/0 := 0."""
    a = _validate_alphas(alphas)
    prefix = np.cumsum(a)
    lhs = math.sqrt(prefix[-1]) if a.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(prefix > 0, a / np.sqrt(prefix), 0.0)
    rhs = float(terms.sum())
    return _margins_report(
        "sqrt_sum",
        [rhs_factor * rhs - lhs],
        f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}",
    )


def check_log_lemma(alphas, *, rhs_factor: float = 1.0) -> LemmaReport:
    """sum a_t / (1 + prefix-sum through t) <= log(1 + sum a_t)."""
    a = _validate_alphas(alphas)
    prefix = np.cumsum(a)
    lhs = float((a / (1.0 + prefix)).sum()) if a.size else 0.0
    rhs = math.log1p(prefix[-1]) if a.size else 0.0
    return _margins_report(
        "log_sum",
        [rhs_factor * rhs - lhs],
        f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}",
    )


def _sweep_report(lemma: str, detail: str, trials) -> LemmaReport:
    """The report of a sweep over ``trials``, (name, report) pairs: the
    trials' worst margins, their summed violations, and the detail of the
    first trial with the lowest margin."""
    margins, violations, worst_detail = [], 0, ""
    for name, single in trials:
        if not margins or single.worst_margin < worst:
            worst, worst_detail = single.worst_margin, f"worst {name}: {single.detail}"
        margins.append(single.worst_margin)
        violations += single.violations
    # np.min, not ``worst``: the sweep's margin is NaN if any trial's is
    lowest = float(np.min(margins)) if margins else 0.0
    return _report(lemma, len(margins), violations, lowest, f"{detail}; {worst_detail}")


def _sweep_scalar_lemma(
    check, lemma: str, trials: int, rng: np.random.Generator, rhs_factor: float
) -> LemmaReport:
    def reports():
        for trial in range(trials):
            length = int(rng.integers(1, _MAX_LEN + 1))
            # downscale by a random power so magnitudes vary but stay <= _MAX_VALUE
            scale = 10.0 ** float(rng.uniform(-6.0, 0.0))
            alphas = scale * rng.uniform(0.0, _MAX_VALUE, size=length)
            yield f"trial {trial}", check(alphas, rhs_factor=rhs_factor)

    return _sweep_report(lemma, f"lengths <= {_MAX_LEN}", reports())


def sweep_sqrt_lemma(
    trials: int, rng: np.random.Generator, *, rhs_factor: float = 1.0
) -> LemmaReport:
    return _sweep_scalar_lemma(check_sqrt_lemma, "sqrt_sum", trials, rng, rhs_factor)


def sweep_log_lemma(
    trials: int, rng: np.random.Generator, *, rhs_factor: float = 1.0
) -> LemmaReport:
    return _sweep_scalar_lemma(check_log_lemma, "log_sum", trials, rng, rhs_factor)


def check_variance_recursion(
    problem: FiniteSumProblem,
    x: np.ndarray,
    y: np.ndarray,
    grad_y_dist,
    *,
    rhs_factor: float = 1.0,
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
    if problem.n * len(outcomes) > _MAX_ENUMERATION:
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
    return _margins_report(
        "variance_recursion",
        [rhs_factor * rhs - lhs],
        f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}",
    )


def sweep_variance_recursion(
    trials: int, rng: np.random.Generator, *, rhs_factor: float = 1.0
) -> LemmaReport:
    """Random small quadratic instances with exact smoothness constants.

    Half the trials use an exact anchor estimator (g_y = grad f(y)); the
    other half use the one-step estimator distribution from a third
    point, which has genuine variance.
    """
    def reports():
        for trial in range(trials):
            n = int(rng.integers(1, _MAX_N + 1))
            d = int(rng.integers(1, _MAX_D + 1))
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
            yield f"trial {trial}", check_variance_recursion(
                problem, x, y, dist, rhs_factor=rhs_factor
            )

    return _sweep_report("variance_recursion", "exact enumeration on quadratics", reports())


def check_trajectory_bound(
    trace: RunTrace,
    problem: FiniteSumProblem,
    beta0: float,
    *,
    rhs_factor: float = 1.0,
) -> LemmaReport:
    """Step-length bound and squared-estimator-norm growth bound.

    (a) Every step length gamma_t ||g_t|| is at most 1/beta0.
    (b) sum_t ||g_t||^2 is at most
        2 L^2 n^2 T / beta0^2 + 2 L^2 T^3 / beta0^2
        + 4 L T^2 ||grad f(x_0)|| / beta0 + 2 T ||grad f(x_0)||^2.
    Needs ``keep_path=True``; ||grad f(x_0)|| is taken at the first iterate.
    """
    if problem.known_smoothness is None:
        raise ValueError("trajectory bound needs the instance smoothness constant")
    if trace.step_sizes is None:
        raise ValueError("trajectory bound needs a trace made with keep_path=True")
    smoothness = problem.known_smoothness
    t_total = trace.num_steps
    grad0 = float(np.linalg.norm(problem.metric_gradient(trace.iterates[0])))
    margins = rhs_factor / beta0 - trace.step_sizes * trace.estimator_norms
    lhs = float(np.sum(trace.estimator_norms**2))
    rhs = (
        2.0 * smoothness**2 * problem.n**2 * t_total / beta0**2
        + 2.0 * smoothness**2 * t_total**3 / beta0**2
        + 4.0 * smoothness * t_total**2 * grad0 / beta0
        + 2.0 * t_total * grad0**2
    )
    return _margins_report(
        "trajectory_bound",
        np.append(margins, rhs_factor * rhs - lhs),
        (
            f"{t_total} step lengths (cap {1.0 / beta0:.3e}) and growth bound "
            f"lhs={lhs:.9e} rhs={rhs_factor * rhs:.9e}"
        ),
    )


def sweep_trajectory_bound(
    runs: int, rng: np.random.Generator, *, rhs_factor: float = 1.0
) -> LemmaReport:
    """Adaptive runs on random small quadratics, both bounds per run. The
    runs keep their paths, so they evaluate no epoch rows."""

    def reports():
        for run in range(runs):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            problem = QuadraticProblem.random(n, d, rng, definite=bool(rng.integers(2)))
            x0 = rng.standard_normal(d)
            trace = adaspider_run(
                problem, x0, AdaSpiderConfig(steps=_TRAJECTORY_STEPS),
                np.random.default_rng(rng.integers(2**32)), keep_path=True,
            )
            yield f"run {run}", check_trajectory_bound(trace, problem, 1.0, rhs_factor=rhs_factor)

    return _sweep_report("trajectory_bound", f"{runs} seeded runs", reports())


def _seeded_runs(problem: FiniteSumProblem, x0: np.ndarray, config, seeds, keep_path):
    """The traces of ``adaspider_run(problem, x0, config,
    np.random.default_rng(seed), keep_path=keep_path)`` for each seed, in order.

    The config is checked and its method built once, as every run checks
    it; the runs step together in :func:`lockstep_run`, and a run's error
    is raised at its turn, as the runs made one at a time would raise it.
    The variance and rate checks read only what their runs keep: with a
    kept path, a run marks no epoch and evaluates no ``value`` or
    ``metric_gradient``.
    """
    method = _adaspider_method(problem, config)
    runs = [(method, x0, np.random.default_rng(seed)) for seed in seeds]
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
    return _report(
        lemma, len(seeds), int(not margin >= 0), margin,
        f"mean margin {mean:.3e}, stderr {stderr:.3e}, {len(seeds)} seeds",
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
    step together as one lockstep group.
    """
    t_grid = list(t_grid)
    for t in t_grid:
        if not float(t).is_integer():
            raise ValueError(f"budget grid value {t!r} is not an integer")
    t_grid = [int(t) for t in t_grid]
    if len(t_grid) < 3:
        raise ValueError("rate fit needs at least 3 budget grid points")
    if sorted(t_grid) != t_grid or len(set(t_grid)) != len(t_grid):
        raise ValueError("budget grid must be strictly increasing")
    if t_grid[0] < 1:
        raise ValueError("step budget must be at least 1")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("rate fit needs at least one seed")
    if x0 is None:
        x0 = np.zeros(problem.d)
    config = AdaSpiderConfig(steps=t_grid[-1], beta0=beta0, g0=g0)
    slopes = []
    for trace in _seeded_runs(problem, x0, config, seeds, "iterates"):
        norms = problem.metric_gradient_norms(trace.iterates)
        means = [float(norms[:t_budget].mean()) for t_budget in t_grid]
        if any(mean <= 0.0 for mean in means):
            raise ValueError("degenerate instance: zero mean gradient norm, no fit possible")
        slopes.append(float(np.polyfit(np.log(t_grid), np.log(means), 1)[0]))
    median_slope = float(np.median(slopes))
    margin = slope_threshold - median_slope
    return _report(
        "rate_scaling", len(slopes), int(not margin >= 0), margin,
        f"median slope {median_slope:.3f} over {len(slopes)} seeds, "
        f"threshold {slope_threshold}",
    )


def default_rate_problem() -> RegularizedERM:
    """The fixed synthetic logistic instance used by the rate suite."""
    dataset = generate_synthetic("separable-logistic", n=64, d=10, seed=0)
    return RegularizedERM(dataset, loss_kind="logistic", lam=0.1)


def default_variance_problem(seed: int = 0) -> QuadraticProblem:
    """The small quadratic family used by the variance suites."""
    return QuadraticProblem.random(4, 2, np.random.default_rng(seed), definite=True)

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs on bundled synthetic data. Runtime-bounded criteria
assert their wall-clock budget as well.
"""

import math
import time

import numpy as np
import pytest

from adaspider.cli import gradient_check_report, main
from adaspider.data import generate_synthetic
from adaspider.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    ProblemSpec,
    build_problem,
    closed_form_oracle_calls,
    emit_records,
    load_records,
    run_experiment,
    steps_for_budget,
    sweep_step_size,
)
from adaspider.optimizers import (
    AdaSpiderConfig,
    adaspider_run,
    adaspider_step_size,
)
from adaspider.problems import QuadraticProblem, RegularizedERM
from adaspider.verify import (
    check_cumulative_variance,
    check_rate_scaling,
    default_rate_problem,
    default_variance_problem,
    sweep_log_lemma,
    sweep_sqrt_lemma,
    sweep_trajectory_bound,
    sweep_variance_recursion,
)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_scalar_lemma_sweeps():
    start = time.time()
    rng = np.random.default_rng(2024)
    sqrt_rep = sweep_sqrt_lemma(1000, rng)
    log_rep = sweep_log_lemma(1000, rng)
    elapsed = time.time() - start
    ok = (
        sqrt_rep.passed
        and log_rep.passed
        and sqrt_rep.trials == 1000
        and log_rep.trials == 1000
        and elapsed < 5.0
    )
    report(
        1,
        "sqrt/log inequality sweeps",
        ok,
        f"violations {sqrt_rep.violations}+{log_rep.violations}, {elapsed:.2f}s",
    )


def test_criterion_02_variance_recursion_enumeration():
    start = time.time()
    rep = sweep_variance_recursion(100, np.random.default_rng(7))
    elapsed = time.time() - start
    ok = rep.passed and rep.trials == 100 and elapsed < 10.0
    report(
        2,
        "estimator variance recursion (exact enumeration)",
        ok,
        f"violations {rep.violations}, worst margin {rep.worst_margin:.3e}, {elapsed:.2f}s",
    )


def test_criterion_03_estimator_exactness_and_unbiasedness():
    rng = np.random.default_rng(5)
    # reset exactness along adaptive runs, bitwise zero at every reset
    exactness_ok = True
    for n in (3, 6, 11):
        problem = QuadraticProblem.random(n, 3, rng)
        trace = adaspider_run(
            problem,
            rng.standard_normal(3),
            AdaSpiderConfig(steps=4 * n),
            np.random.default_rng(n),
            keep_path=True,
        )
        for t in range(0, 4 * n, n):
            deviation = trace.estimates[t] - problem.mean_gradient(trace.iterates[t])
            exactness_ok &= float(np.linalg.norm(deviation)) == 0.0
    # increment unbiasedness by enumeration over all components
    unbiased_ok = True
    for n in (2, 9, 20):
        problem = QuadraticProblem.random(n, 4, rng)
        x_prev = rng.standard_normal(4)
        x_new = rng.standard_normal(4)
        mean_increment = np.stack(
            [
                problem.component_gradient(i, x_new)
                - problem.component_gradient(i, x_prev)
                for i in range(1, n + 1)
            ]
        ).mean(axis=0)
        target = problem.mean_gradient(x_new) - problem.mean_gradient(x_prev)
        unbiased_ok &= float(np.linalg.norm(mean_increment - target)) <= 1e-12
    report(
        3,
        "estimator reset exactness and unbiased increments",
        exactness_ok and unbiased_ok,
        f"exact resets {exactness_ok}, unbiased increments {unbiased_ok}",
    )


def test_criterion_04_step_contract():
    gamma0 = adaspider_step_size(16, 1.0, 1.0, 0.0)
    gamma0_ok = gamma0 == 0.25
    monotone_ok = True
    bound_ok = True
    for seed, beta0 in ((0, 1.0), (1, 0.5), (2, 3.0)):
        dataset = generate_synthetic("separable-logistic", n=25, d=6, seed=seed)
        problem = RegularizedERM(dataset, lam=0.1)
        trace = adaspider_run(
            problem,
            np.zeros(6),
            AdaSpiderConfig(steps=120, beta0=beta0),
            np.random.default_rng(seed),
            keep_path=True,
        )
        monotone_ok &= bool(np.all(np.diff(trace.step_sizes) <= 0.0))
        lengths = trace.step_sizes * trace.estimator_norms
        bound_ok &= bool(np.all(lengths <= 1.0 / beta0 + 1e-12))
    report(
        4,
        "step-size monotone, step length <= 1/beta0, exact gamma_0",
        gamma0_ok and monotone_ok and bound_ok,
        f"gamma0 {gamma0}, monotone {monotone_ok}, bounded {bound_ok}",
    )


def test_criterion_05_oracle_accounting():
    ok = True
    details = []
    for n, steps in ((8, 8), (8, 20), (5, 5), (12, 40), (7, 1)):
        problem = QuadraticProblem.random(n, 2, np.random.default_rng(n))
        trace = adaspider_run(
            problem,
            np.zeros(2),
            AdaSpiderConfig(steps=steps),
            np.random.default_rng(steps),
        )
        expected = closed_form_oracle_calls(AlgorithmSpec("adaspider"), problem, steps)
        ok &= trace.charged_calls == expected
        if steps == n:
            ok &= expected == n + 2 * (n - 1)
        details.append(f"n={n},T={steps}:{trace.charged_calls}={expected}")
    report(5, "charged oracle calls match the closed form", ok, " ".join(details))


def test_criterion_06_cumulative_variance_bound():
    start = time.time()
    problem = default_variance_problem(0)
    rep = check_cumulative_variance(
        problem, AdaSpiderConfig(steps=40), seeds=range(1, 201)
    )
    elapsed = time.time() - start
    ok = rep.passed and rep.trials == 200 and elapsed < 60.0
    report(
        6,
        "cumulative variance bound (Monte-Carlo, 3 stderr)",
        ok,
        f"{rep.detail}, {elapsed:.2f}s",
    )


def test_criterion_07_trajectory_bound_runs():
    rep = sweep_trajectory_bound(50, np.random.default_rng(13))
    ok = rep.passed and rep.trials == 50
    report(
        7,
        "trajectory growth bound with explicit constants",
        ok,
        f"violations {rep.violations}, worst margin {rep.worst_margin:.3e}",
    )


def test_criterion_08_rate_scaling():
    start = time.time()
    problem = default_rate_problem()
    assert problem.n == 64 and problem.d == 10
    rep = check_rate_scaling(
        problem, (100, 1000, 10000), seeds=range(5), slope_threshold=-0.35
    )
    elapsed = time.time() - start
    ok = rep.passed and elapsed < 300.0
    report(8, "gradient-norm decay slope vs budget", ok, f"{rep.detail}, {elapsed:.1f}s")


def test_criterion_09_parameter_freeness():
    spec = ProblemSpec(n=500, d=20, lam=0.1, data_seed=0)
    problem = build_problem(spec)
    budget = 200 * problem.n
    steps = steps_for_budget(AlgorithmSpec(name="adaspider"), problem, budget)
    finals = []
    for seed in range(5):
        trace = adaspider_run(
            problem,
            np.zeros(problem.d),
            AdaSpiderConfig(steps=steps),  # untouched defaults beta0 = G0 = 1
            np.random.default_rng([17, seed]),
        )
        assert trace.charged_calls <= budget
        finals.append(float(np.linalg.norm(problem.metric_gradient(trace.x_final))))
    hits = sum(f <= 1e-3 for f in finals)
    ok = hits >= 4
    report(
        9,
        "untuned defaults reach 1e-3 within 200n calls",
        ok,
        f"{hits}/5 seeds, final norms {['%.1e' % f for f in finals]}",
    )


def test_criterion_10_baseline_ordering():
    spec = ProblemSpec(n=500, d=20, lam=0.1, data_seed=0)
    epochs = 50

    def runs(algos):
        config = ExperimentConfig(
            problem=spec,
            algorithms=algos,
            epochs=epochs,
            repeats=5,
            master_seed=0,
        )
        records = run_experiment(config)
        medians = {}
        for name in {r.algo for r in records}:
            medians[name] = float(
                np.median([r.final_grad_norm for r in records if r.algo == name])
            )
        return medians

    sweep_base = ExperimentConfig(
        problem=spec,
        algorithms=[AlgorithmSpec("sgd")],
        epochs=epochs,
        repeats=5,
        master_seed=0,
    )
    best_sgd, _ = sweep_step_size(sweep_base, "sgd")
    sweep_base.algorithms = [AlgorithmSpec("svrg")]
    best_svrg, _ = sweep_step_size(sweep_base, "svrg")

    medians = runs(
        [
            AlgorithmSpec("adaspider"),
            AlgorithmSpec("spiderboost"),
            AlgorithmSpec("svrg", params={"eta": best_svrg}),
            AlgorithmSpec("sgd", params={"eta": best_sgd}),
            AlgorithmSpec("spider", params={"eps": 0.01}),
        ]
    )
    vr_below_sgd = all(
        medians[name] < medians["sgd"] for name in ("adaspider", "spiderboost", "svrg")
    )
    spider_worse = medians["spider"] > medians["adaspider"]
    ok = vr_below_sgd and spider_worse
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(medians.items()))
    report(10, "variance reduction beats tuned SGD; accuracy-tied steps lag", ok, detail)


def test_criterion_11_gradient_correctness():
    rep = gradient_check_report(points=20, seed=0)
    ok = rep["pass"] and rep["max_rel_error"] <= 1e-5
    families = {k: f"{v:.2e}" for k, v in rep["families"].items()}
    report(11, "analytic gradients match central differences", ok, str(families))
    # the CLI surface agrees
    assert main(["gradcheck", "--points", "5"]) == 0


def test_criterion_12_determinism_and_serialization(tmp_path):
    config = ExperimentConfig(
        problem=ProblemSpec(n=30, d=6, data_seed=2),
        algorithms=[
            AlgorithmSpec("adaspider"),
            AlgorithmSpec("sgd", params={"eta": 0.05}),
        ],
        steps=90,
        repeats=3,
        master_seed=21,
    )
    records_a = run_experiment(config)
    records_b = run_experiment(config)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    emit_records(records_a, "csv", str(path_a))
    emit_records(records_b, "csv", str(path_b))
    bytes_identical = path_a.read_bytes() == path_b.read_bytes()
    csv_round_trip = load_records(str(path_a), "csv") == records_a
    json_path = tmp_path / "a.json"
    emit_records(records_a, "json", str(json_path))
    json_round_trip = load_records(str(json_path), "json") == records_a
    ok = bytes_identical and csv_round_trip and json_round_trip
    report(
        12,
        "bit-identical reruns and lossless round-trips",
        ok,
        f"bytes {bytes_identical}, csv {csv_round_trip}, json {json_round_trip}",
    )

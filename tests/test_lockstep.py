"""Lockstep groups: the runs of one method stepped together as one iterate
block give the traces, oracle counts, errors and records of the same runs
stepped one at a time."""

import hashlib
import json
import math
import runpy
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaspider.harness as harness
import adaspider.optimizers as optimizers
import adaspider.verify as verify
from adaspider.cli import main
from adaspider.core import FiniteSumProblem, NonFiniteGradientError
from adaspider.data import generate_synthetic
from adaspider.harness import ALGORITHM_NAMES, AlgorithmSpec, closed_form_oracle_calls
from adaspider.optimizers import (
    AdaSpiderConfig,
    RunTrace,
    lockstep_run,
    svrg_run,
)
from adaspider.problems import (
    MLPClassificationProblem,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
)

FAMILIES = ("logistic", "squared", "quadratic", "mlp")
MLP_DIMS = (3, 4, 2)
# A member's step scale: eta of sgd, AdaGrad-Norm and SVRG, eps and
# 1/smoothness of SPIDER, 1/smoothness of SpiderBoost, 1/beta0 of AdaSpider.
SCALES = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


def make_problem(family: str, n: int, d: int, seed: int) -> FiniteSumProblem:
    """A small instance of ``family``; the network's dimension is set by
    MLP_DIMS."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        return QuadraticProblem.random(n, d, rng)
    if family == "mlp":
        clusters = generate_synthetic(
            "two-cluster-classification", n, MLP_DIMS[0], seed, n_classes=MLP_DIMS[-1]
        )
        return MLPClassificationProblem(clusters, MLP_DIMS)
    kind = "separable-logistic" if family == "logistic" else "quadratic"
    return RegularizedERM(generate_synthetic(kind, n, d, seed), loss_kind=family)


def start_point(family: str, problem, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng([seed, 7])
    if family == "mlp":
        return kaiming_uniform_scaled_init(MLP_DIMS, 0.1, rng)
    return scale * rng.standard_normal(problem.d)


def method_args(algo, k, scale, steps, period, batch) -> dict:
    """The arguments of member k's ``<algo>_run`` call besides x0 and rng."""
    if algo == "sgd":
        return {"eta": scale, "steps": steps}
    if algo == "adagrad_norm":
        return {"eta": scale, "b0": 0.5 + k, "steps": steps}
    if algo == "svrg":
        return {"eta": scale, "epoch_length": period, "inner_batch": batch, "steps": steps}
    if algo == "adaspider":
        config = AdaSpiderConfig(
            steps=steps, beta0=1.0 / scale, g0=0.5 + k, period=period, inner_batch=batch
        )
        return {"config": config}
    if algo == "spider":
        return {
            "epsilon": scale, "smoothness": 1.0 / scale, "steps": steps,
            "period": period, "inner_batch": batch,
        }
    return {"smoothness": 1.0 / scale, "steps": steps, "period": period, "batch_size": batch}


def group_runs(algo, scales, x0s, seed, steps, period, batch):
    """The keyword arguments of one ``<algo>_run`` call per member."""
    return [
        dict(method_args(algo, k, scale, steps, period, batch), x0=x0,
             rng=np.random.default_rng([seed, k]))
        for k, (scale, x0) in enumerate(zip(scales, x0s))
    ]


def members(problem, algo, runs) -> list:
    """The (method, x0, rng) of each member of a lockstep group, its method
    built from its ``<algo>_run`` call's arguments as that call builds it."""
    return [
        (
            harness.ALGORITHMS[algo].build(
                problem, **{key: v for key, v in kw.items() if key not in ("x0", "rng")}
            ),
            kw["x0"],
            kw["rng"],
        )
        for kw in runs
    ]


def grouped_outcomes(problem, algo, runs, keep_path=False) -> list:
    return list(lockstep_run(problem, algo, members(problem, algo, runs), keep_path=keep_path))


def registry_spec(algo, kw) -> AlgorithmSpec:
    """The registry spec of a ``<algo>_run`` call's arguments."""
    params = {key: v for key, v in kw.items() if key not in ("x0", "rng", "steps")}
    if algo == "adaspider":
        params = {key: getattr(params["config"], key)
                  for key in ("beta0", "g0", "period", "inner_batch")}
    elif algo == "spider":
        params["eps"] = params.pop("epsilon")
    return AlgorithmSpec(algo, params={key: v for key, v in params.items() if v is not None})


def bits(value):
    """A value down to the bytes of its floats, for exact comparison."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, list):
        return [bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return [(f.name, bits(getattr(value, f.name))) for f in fields(value)]
    return (type(value).__name__, value)


def assert_same_trace(got: RunTrace, want: RunTrace) -> None:
    for f in fields(RunTrace):
        assert bits(getattr(got, f.name)) == bits(getattr(want, f.name)), f.name


class RecordingCounter(optimizers.OracleCounter):
    """An OracleCounter that keeps each amount charged to it, in order."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.charges = []
        RecordingCounter.made.append(self)

    def charge(self, amount: int) -> None:
        self.charges.append(amount)
        super().charge(amount)


def counted(fn):
    """``fn()`` and the counters the runs it made created, in order."""
    RecordingCounter.made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizers, "OracleCounter", RecordingCounter)
        result = fn()
    return result, list(RecordingCounter.made)


def fresh_rng(kw) -> np.random.Generator:
    return np.random.default_rng(kw["rng"].bit_generator.seed_seq)


def one_at_a_time(problem, algo, runs, keep_path=False) -> list:
    run = getattr(optimizers, f"{algo}_run")
    outcomes = []
    for kw in runs:
        kw = dict(kw, rng=fresh_rng(kw))
        try:
            outcomes.append(run(problem, **kw, keep_path=keep_path))
        except NonFiniteGradientError as exc:
            outcomes.append(exc)
    return outcomes


def check_group(problem, algo, runs, keep_path=False):
    """Lockstep outcomes equal the sequential ones, and every counter
    holds the closed-form count of its run's steps; returns the traces.
    Every field of a group's trace is bitwise that of the run alone made
    with the same ``keep_path``, its ``charged_calls`` included."""
    sequential, seq_counters = counted(lambda: one_at_a_time(problem, algo, runs, keep_path))
    grouped, counters = counted(lambda: grouped_outcomes(problem, algo, runs, keep_path))
    assert len(grouped) == len(sequential) == len(counters) == len(seq_counters)
    for got, want, counter, seq_counter, kw in zip(
        grouped, sequential, counters, seq_counters, runs
    ):
        assert counter.component_calls == seq_counter.component_calls
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert_same_trace(got, want)
        assert (got.iterates is not None) == bool(keep_path)
        assert (got.step_sizes is not None) == (got.estimates is not None) == (keep_path is True)
        spec = registry_spec(algo, kw)
        assert got.charged_calls == counter.component_calls
        assert counter.component_calls == closed_form_oracle_calls(spec, problem, got.num_steps)
    return grouped


class TestGroupEqualsRuns:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        algo=st.sampled_from(ALGORITHM_NAMES),
        n=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=4),
        scales=st.lists(st.sampled_from(SCALES), min_size=2, max_size=9),
        steps=st.integers(min_value=1, max_value=60),
        period=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        batch=st.integers(min_value=1, max_value=4),
        scale=st.sampled_from([0.0, 1.0]),
        seed=st.integers(min_value=0, max_value=10_000),
        # index draws are taken in chunks of this size
        chunk=st.sampled_from([1, 2, 5, 1024]),
        keep_path=st.sampled_from([False, True, "iterates"]),
    )
    @example("squared", "sgd", 8, 1, list(SCALES), 40, None, 1, 1.0, 0, 1024, False)
    @example("quadratic", "svrg", 6, 1, [0.1, 10.0, 1e3], 30, 4, 3, 1.0, 1, 2, True)
    @example("mlp", "adagrad_norm", 5, 1, [0.1, 1.0], 20, None, 1, 0.0, 2, 5, False)
    @example("logistic", "svrg", 9, 3, list(SCALES) + [0.5, 5.0], 50, 7, 2, 0.0, 3, 1, False)
    # a SPIDER batch of n or more takes the exact full-gradient difference
    @example("quadratic", "adaspider", 1, 2, [1.0, 10.0], 30, 5, 1, 1.0, 0, 5, True)
    @example("logistic", "spiderboost", 4, 3, list(SCALES), 40, 3, 4, 1.0, 1, 2, False)
    @example("mlp", "spider", 6, 1, [0.1, 1.0, 10.0], 25, 5, 2, 0.0, 2, 1, True)
    # verify's rate check: iterates kept
    @example("squared", "adaspider", 10, 2, list(SCALES), 60, None, 3, 1.0, 4, 5, "iterates")
    def test_every_trace_field_bitwise(
        self, family, algo, n, d, scales, steps, period, batch, scale, seed, chunk, keep_path
    ):
        problem = make_problem(family, n, d, seed)
        x0s = [start_point(family, problem, seed + k, scale) for k in range(len(scales))]
        runs = group_runs(algo, scales, x0s, seed, steps, period, batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizers, "_DRAW_CHUNK", chunk)
            check_group(problem, algo, runs, keep_path)

    # AdaGrad-Norm's own step shrinks as it grows, so only its first steps
    # can diverge; a SPIDER step is at most scale^2 / sqrt(n) long.
    @pytest.mark.parametrize(
        "algo,scales,stop_steps",
        [
            ("sgd", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
            ("svrg", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
            ("adagrad_norm", list(np.geomspace(1e10, 1e13, 16)), 2),
            ("spider", list(np.geomspace(1e2, 1e8, 16)), 3),
            ("spiderboost", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
        ],
    )
    def test_members_diverge_at_different_steps(self, algo, scales, stop_steps):
        problem = make_problem("squared", 10, 3, 1)
        runs = group_runs(algo, scales, [np.ones(3)] * len(scales), 5, 300, 5, 2)
        traces = check_group(problem, algo, runs, keep_path=True)
        assert len({t.diverged_at for t in traces if t.diverged}) >= stop_steps
        assert any(not t.diverged for t in traces)

    @pytest.mark.parametrize("batch", [6, 9])
    def test_spider_batch_of_n_or_more_draws_nothing(self, batch):
        # the exact full-gradient difference of spider_estimator_update
        problem = make_problem("logistic", 6, 3, 2)
        x0s = [start_point("logistic", problem, k, 1.0) for k in range(3)]
        runs = group_runs("spiderboost", [0.1, 1.0, 10.0], x0s, 2, 40, 4, batch)
        check_group(problem, "spiderboost", runs)
        for kw in runs:
            assert kw["rng"].bit_generator.state == fresh_rng(kw).bit_generator.state

    def test_spider_step_is_the_cap_where_its_denominator_underflows(self):
        # L sqrt(n) ||g|| = 1e-200 * sqrt(2) * 1e-150 is below the smallest
        # subnormal, so eps / (L sqrt(n) ||g||) would be +inf
        problem = QuadraticProblem(np.array([[[1.0]], [[1.0]]]), np.zeros((2, 1)))
        runs = group_runs("spider", [1.0, 1.0], [np.array([1e-150])] * 2, 0, 3, None, 1)
        for kw in runs:
            kw["smoothness"] = 1e-200
        traces = check_group(problem, "spider", runs, keep_path=True)
        cap = 1.0 / (2.0 * math.sqrt(2) * 1e-200)
        assert all(t.step_sizes[0] == cap for t in traces)

    @pytest.mark.parametrize("algo", ALGORITHM_NAMES)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_network_of_the_training_script(self, algo, batch):
        # the (20, 16, 16, 4) network, whose blocks are one pass at one
        # parameter vector per row
        dims = (20, 16, 16, 4)
        clusters = generate_synthetic("two-cluster-classification", 24, 20, 4, n_classes=4)
        problem = MLPClassificationProblem(clusters, dims)
        x0s = [kaiming_uniform_scaled_init(dims, 0.01, np.random.default_rng([4, k]))
               for k in range(3)]
        runs = group_runs(algo, [0.1, 1.0, 10.0], x0s, 4, 40, 6, batch)
        check_group(problem, algo, runs, keep_path=True)

    def test_runs_must_share_steps_and_period(self):
        problem = make_problem("logistic", 6, 2, 0)
        runs = group_runs("svrg", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, 3, 1)
        runs[1]["epoch_length"] = 4
        with pytest.raises(ValueError, match="share"):
            grouped_outcomes(problem, "svrg", runs)
        runs = group_runs("adaspider", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, 3, 1)
        runs[1]["config"].inner_batch = 2
        with pytest.raises(ValueError, match="share"):
            grouped_outcomes(problem, "adaspider", runs)


# Members whose step scales make them diverge at different steps of a
# 300-step group on the squared problem of test_members_diverge_at_different_steps,
# largest first: the first rows stop first, and the rows of the block that
# held them go on being stepped.
STOPPING_SCALES = {
    "sgd": [1e8, 1e4, 100.0, 10.0, 3.0, 1.0, 0.6, 0.3, 0.01],
    "svrg": [1e8, 1e4, 100.0, 10.0, 3.0, 1.0, 0.6, 0.3, 0.01],
    "spider": list(np.geomspace(1e8, 1e2, 16)),
    "spiderboost": [1e8, 1e4, 100.0, 10.0, 3.0, 1.0, 0.6, 0.3, 0.01],
}


class TestStepBlock:
    """A group's inner steps hand the samples they drew to the unchecked
    ``_gradients``, and keep x and the anchor in one block that nothing a
    trace keeps shares."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("algo", ALGORITHM_NAMES)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_inner_steps_check_no_indices(self, family, algo, batch, monkeypatch):
        # events in call order; a reset's full gradients and a stopped
        # member's epoch rows may check (the network's default mean_gradient
        # goes through component_gradients), the steps between them may not
        events = []
        problem = make_problem(family, 10, 2, 0)
        check, batched = FiniteSumProblem._check_indices, problem._gradients

        def counted_check(self, indices):
            events.append("check")
            return check(self, indices)

        def step(*args):
            events.append("gradients")
            return batched(*args)

        def region(name):
            inner = getattr(optimizers, name)

            def wrapped(*args):
                events.append(name)
                result = inner(*args)
                events.append("end")
                return result

            monkeypatch.setattr(optimizers, name, wrapped)

        monkeypatch.setattr(FiniteSumProblem, "_check_indices", counted_check)
        monkeypatch.setattr(problem, "_gradients", step)
        region("full_gradients")
        region("_trace")
        x0s = [start_point(family, problem, k, 1.0) for k in range(3)]
        runs = group_runs(algo, [0.01, 0.02, 0.05], x0s, 0, 30, 4, batch)
        traces = grouped_outcomes(problem, algo, runs)
        assert [t.num_steps for t in traces] == [30] * 3
        outside, depth = [], 0
        for event in events:
            depth += {"full_gradients": 1, "_trace": 1, "end": -1}.get(event, 0)
            if not depth and event in ("check", "gradients"):
                outside.append(event)
        resets = events.count("full_gradients")
        assert resets == (0 if algo in ("sgd", "adagrad_norm") else 8)
        assert outside == ["gradients"] * (30 - resets)

    @pytest.mark.parametrize("algo", sorted(STOPPING_SCALES))
    @pytest.mark.parametrize("keep_path", [False, True, "iterates"])
    def test_traces_of_stopped_members_stay_as_made(self, algo, keep_path, monkeypatch):
        # a member's trace is made when it stops; the group then steps on,
        # writing x into the block, and cuts the member's row from it
        made, trace = [], optimizers._trace

        def kept(*args):
            made.append((outcome := trace(*args), bits(outcome)))
            return outcome

        monkeypatch.setattr(optimizers, "_trace", kept)
        problem = make_problem("squared", 10, 3, 1)
        scales = STOPPING_SCALES[algo]
        runs = group_runs(algo, scales, [np.ones(3)] * len(scales), 5, 300, 5, 2)
        traces = grouped_outcomes(problem, algo, runs, keep_path)
        assert len({t.num_steps for t in traces}) >= 3
        by_stop = sorted(traces, key=lambda t: t.num_steps)
        assert [id(outcome) for outcome, _ in made] == [id(t) for t in by_stop]
        for outcome, at_stop in made:
            assert bits(outcome) == at_stop
            assert outcome.iterates is None or len(outcome.iterates) == outcome.num_steps
            assert keep_path or len(outcome.epoch_points) > 1


# One bad argument of each run function: (algo, key, value, message). The
# AdaSpider keys are set on its config, which the run checks.
BAD_ARGUMENTS = [
    ("sgd", "eta", 0.0, "step size must be positive and finite"),
    ("adagrad_norm", "eta", -1.0, "step size must be positive and finite"),
    ("adagrad_norm", "b0", 0.0, "norm offset b0 must be positive and finite"),
    ("svrg", "eta", 0.0, "step size must be positive and finite"),
    ("svrg", "epoch_length", 0, "epoch length must be at least 1"),
    ("svrg", "inner_batch", 0, "inner batch size must be at least 1"),
    ("spider", "epsilon", 0.0, "target accuracy must be positive and finite"),
    ("spider", "smoothness", -1.0, "smoothness constant must be positive and finite"),
    ("spider", "period", 0, "full-gradient period must be at least 1"),
    ("spider", "inner_batch", 0, "inner batch size must be at least 1"),
    ("spiderboost", "smoothness", 0.0, "smoothness constant must be positive and finite"),
    ("spiderboost", "period", 0, "full-gradient period must be at least 1"),
    ("spiderboost", "batch_size", 0, "inner batch size must be at least 1"),
    ("adaspider", "beta0", 0.0, "beta0 and G0 must be positive and finite"),
    ("adaspider", "g0", -1.0, "beta0 and G0 must be positive and finite"),
    ("adaspider", "period", 0, "full-gradient period must be at least 1"),
    ("adaspider", "inner_batch", 0, "inner batch size must be at least 1"),
    *[(algo, "steps", 0, "step budget must be at least 1") for algo in ALGORITHM_NAMES],
    ("spider", "x0", [math.nan, 0.0], "parameter vector contains non-finite entries"),
    ("sgd", "x0", [0.0], "expected dimension 2, got 1"),
]


@pytest.mark.parametrize("algo,key,value,message", BAD_ARGUMENTS)
def test_group_refuses_a_bad_argument_as_its_run_function(algo, key, value, message):
    problem = make_problem("logistic", 6, 2, 0)
    runs = group_runs(algo, [0.1, 0.2, 0.3], [np.zeros(2)] * 3, 0, 10, 3, 2)
    bad = runs[1]
    if algo == "adaspider" and key != "x0":
        setattr(bad["config"], key, value)
    else:
        bad[key] = value
    with pytest.raises(ValueError) as alone:
        getattr(optimizers, f"{algo}_run")(problem, **bad)
    with pytest.raises(ValueError) as grouped:
        grouped_outcomes(problem, algo, runs)
    assert type(grouped.value) is type(alone.value)
    assert str(grouped.value) == str(alone.value) == message


# keep_path is False, True or "iterates": a typo, or a value merely equal
# or truthy, is refused at the run function's call and at lockstep_run's,
# before any step.
@pytest.mark.parametrize("keep_path", ["iterate", 1, 0.5, 0, None, np.True_])
@pytest.mark.parametrize("algo", ["sgd", "adaspider"])
def test_keep_path_other_than_its_three_values_is_refused(algo, keep_path):
    problem = make_problem("quadratic", 4, 2, 0)
    runs = group_runs(algo, [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, 2, 1)
    message = f"keep_path must be False, True or 'iterates', got {keep_path!r}"
    with pytest.raises(ValueError) as alone:
        getattr(optimizers, f"{algo}_run")(problem, **runs[0], keep_path=keep_path)
    with pytest.raises(ValueError) as grouped:
        lockstep_run(problem, algo, members(problem, algo, runs), keep_path=keep_path)
    assert str(alone.value) == str(grouped.value) == message


# A member's outcome depends on its own method, start and generator only:
# nine members stepped as groups of the given sizes, each group in reverse
# order, give the outcomes of one group of all nine.
@pytest.mark.parametrize("algo,keep_path", [
    ("adaspider", True), ("svrg", "iterates"), ("sgd", False)
])
@pytest.mark.parametrize("sizes", [[9], [4, 5], [3, 3, 3], [2, 2, 2, 3], [1] * 9])
def test_members_do_not_depend_on_their_group(algo, keep_path, sizes):
    problem = make_problem("logistic", 8, 3, 0)
    x0s = [start_point("logistic", problem, k, 1.0) for k in range(9)]
    scales = [*SCALES, 0.5, 5.0]
    whole = check_group(problem, algo, group_runs(algo, scales, x0s, 0, 30, 4, 2), keep_path)
    runs = group_runs(algo, scales, x0s, 0, 30, 4, 2)
    got, start = [], 0
    for size in sizes:
        part = runs[start : start + size][::-1]
        got += grouped_outcomes(problem, algo, part, keep_path)[::-1]
        start += size
    assert len(got) == len(whole) == 9
    for g, w in zip(got, whole):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert_same_trace(g, w)


# The trials of a grid value do not depend on the other values of its
# sweep or their order: 3 values x 2 repeats of 20 steps, swept as one
# reversed group or in parts, give the trials of one sweep of all three.
@pytest.mark.parametrize("parts", [
    [[10.0, 1.0, 0.1]], [[0.1], [1.0, 10.0]], [[1.0], [10.0, 0.1]], [[0.1], [1.0], [10.0]]
])
def test_sweep_values_do_not_depend_on_their_group(parts):
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(n=10, d=2),
        algorithms=[AlgorithmSpec("sgd")],
        steps=20,
        repeats=2,
    )
    best, want = harness.sweep_step_size(config, "sgd", [0.1, 1.0, 10.0])
    got = {}
    for grid in parts:
        got.update(harness.sweep_step_size(config, "sgd", grid)[1])
    if len(parts) == 1:
        assert harness.sweep_step_size(config, "sgd", parts[0])[0] == best
    assert sorted(got) == sorted(want)
    for value in want:
        assert bits(got[value]) == bits(want[value])


def test_group_steps_nothing_before_its_first_run(monkeypatch):
    # benchmark set-up time ends at the first run_algorithm call
    events = []

    class Counter(optimizers.OracleCounter):
        def __init__(self):
            super().__init__()
            events.append("counter")

    def run_algorithm(*args, **kwargs):
        events.append("run")
        return original(*args, **kwargs)

    original = harness.run_algorithm
    monkeypatch.setattr(optimizers, "OracleCounter", Counter)
    monkeypatch.setattr(harness, "run_algorithm", run_algorithm)
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(n=10, d=2),
        algorithms=[AlgorithmSpec("svrg"), AlgorithmSpec("sgd")],
        steps=20,
        repeats=3,
    )
    harness.run_experiment(config)
    assert events == ["run", "counter", "counter", "counter", "run", "run"] * 2


def test_spider_family_repeats_step_as_groups(monkeypatch):
    # SpiderBoost's batch of n takes the exact full-gradient difference
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(n=9, d=3),
        algorithms=[
            AlgorithmSpec("adaspider", params={"inner_batch": 2}),
            AlgorithmSpec("spider"),
            AlgorithmSpec("spiderboost", params={"batch_size": 9}),
        ],
        epochs=4,
        repeats=3,
    )
    run_alone = harness.run_algorithm
    with pytest.MonkeyPatch.context() as mp:
        # every run alone: its group is made but never taken
        mp.setattr(harness, "run_algorithm", lambda *args, group=None: run_alone(*args))
        alone = harness.run_experiment(config)
    groups = []

    def counting(problem, algo, runs):
        groups.append((algo, len(runs)))
        return lockstep_run(problem, algo, runs)

    monkeypatch.setattr(harness, "lockstep_run", counting)
    grouped = harness.run_experiment(config)
    assert groups == [("adaspider", 3), ("spider", 3), ("spiderboost", 3)]
    assert bits(grouped) == bits(alone)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 7, 500, 2**31 + 5]),
    chunks=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chunked_draws_equal_scalar_draws(n, chunks, seed):
    chunked_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    chunked = np.concatenate([chunked_rng.integers(n, size=k) for k in chunks])
    scalar = [int(scalar_rng.integers(n)) for _ in range(sum(chunks))]
    assert chunked.tolist() == scalar
    assert chunked_rng.bit_generator.state == scalar_rng.bit_generator.state


class Ramp(FiniteSumProblem):
    """n components of gradient -1 in one coordinate: every estimate is -1,
    so the iterate climbs by its step size each step. From its
    ``fault_at``-th evaluation at a positive point on, the full gradient
    there is infinite."""

    def __init__(self, n: int, fault_at: int | None = None):
        super().__init__(n=n, d=1)
        self.fault_at, self.positive_resets = fault_at, 0

    def component_value(self, i, x):
        return -float(x[0])

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.array([-1.0])

    def mean_gradient(self, x):
        if x[0] > 0:
            self.positive_resets += 1
            if self.fault_at is not None and self.positive_resets >= self.fault_at:
                return np.array([math.inf])
        return np.array([-1.0])

    def metric_gradients(self, points):
        return -np.ones((len(points), 1))


def scalar_draws(algo, steps_taken: int, period: int, batch: int) -> int:
    """The values a run's first ``steps_taken`` steps draw one at a time:
    one a step for sgd and AdaGrad-Norm, ``batch`` an inner step otherwise."""
    if algo in ("sgd", "adagrad_norm"):
        return steps_taken
    return (steps_taken - -(-steps_taken // period)) * batch


def assert_left_after_scalar_draws(kw, n: int, count: int) -> None:
    fresh = fresh_rng(kw)
    for _ in range(count):
        fresh.integers(n)
    assert kw["rng"].bit_generator.state == fresh.bit_generator.state


def runs_or_group(problem, algo, runs, grouped: bool) -> list:
    """The outcomes of ``runs`` as one group, or made one at a time with
    their own generators."""
    if grouped:
        return grouped_outcomes(problem, algo, runs)
    outcomes = []
    for kw in runs:
        try:
            outcomes.append(getattr(optimizers, f"{algo}_run")(problem, **kw))
        except NonFiniteGradientError as exc:
            outcomes.append(exc)
    return outcomes


METHOD_BATCHES = [
    (algo, batch)
    for algo in ALGORITHM_NAMES
    for batch in ((1,) if algo in ("sgd", "adagrad_norm") else (1, 3))
]


class TestGeneratorLeftAsScalarDraws:
    """Index draws come in chunks, but a run leaves its generator where the
    scalar draws it consumed would, alone or in a group, whether it
    completed, diverged or met a non-finite reset gradient."""

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("algo,batch", METHOD_BATCHES)
    def test_diverged_and_completed_runs(self, algo, batch, grouped):
        # the first member climbs past the divergence limit within 40 steps
        problem = Ramp(10)
        x0s = [np.array([optimizers.DIVERGENCE_LIMIT - 5.0]), np.zeros(1)]
        runs = group_runs(algo, [1.0, 1.0], x0s, 3, 300, 10, batch)
        outcomes = runs_or_group(problem, algo, runs, grouped)
        assert outcomes[0].diverged and 2 < outcomes[0].num_steps < 40
        assert not outcomes[1].diverged and outcomes[1].num_steps == 300
        for trace, kw in zip(outcomes, runs):
            assert_left_after_scalar_draws(kw, 10, scalar_draws(algo, trace.num_steps, 10, batch))

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize(
        "algo,batch", [(a, b) for a, b in METHOD_BATCHES if a not in ("sgd", "adagrad_norm")]
    )
    def test_non_finite_reset(self, algo, batch, grouped):
        # the first member's fourth reset, at step 30, is not finite
        problem = Ramp(10, fault_at=4)
        runs = group_runs(algo, [1e-3, 1e-3], [np.ones(1), np.array([-1e6])], 4, 300, 10, batch)
        outcomes = runs_or_group(problem, algo, runs, grouped)
        assert isinstance(outcomes[0], NonFiniteGradientError)
        assert outcomes[1].num_steps == 300
        assert_left_after_scalar_draws(runs[0], 10, scalar_draws(algo, 30, 10, batch))
        assert_left_after_scalar_draws(runs[1], 10, scalar_draws(algo, 300, 10, batch))

    @pytest.mark.parametrize("grouped", [False, True])
    def test_odd_chunk_rewinds_the_buffered_half_draw(self, grouped, monkeypatch):
        # a chunk of 301 values leaves half of a 64-bit output buffered in
        # the generator; a run that stops inside it must not keep that half
        monkeypatch.setattr(optimizers, "_DRAW_CHUNK", 301)
        problem = Ramp(10)
        x0s = [np.array([optimizers.DIVERGENCE_LIMIT - 5.0]), np.zeros(1)]
        runs = group_runs("sgd", [1.0, 1.0], x0s, 3, 301, 1, 1)
        outcomes = runs_or_group(problem, "sgd", runs, grouped)
        assert outcomes[0].diverged and not outcomes[1].diverged
        for trace, kw in zip(outcomes, runs):
            assert_left_after_scalar_draws(kw, 10, trace.num_steps)

    def test_other_bit_generators_rewind_their_whole_state(self):
        x0 = np.array([optimizers.DIVERGENCE_LIMIT - 5.0])
        rng, fresh = (np.random.Generator(np.random.MT19937(5)) for _ in range(2))
        trace = optimizers.sgd_run(Ramp(10), x0, 1.0, 301, rng)
        assert trace.diverged
        for _ in range(trace.num_steps):
            fresh.integers(10)
        assert rng.integers(1 << 62, size=4).tolist() == fresh.integers(1 << 62, size=4).tolist()

    def test_diverged_member_draws_on_as_its_run_alone(self):
        problem = RegularizedERM(generate_synthetic("quadratic", 50, 5, 0), "squared", 0.1)
        alone, member = np.random.default_rng(0), np.random.default_rng(0)
        trace = optimizers.sgd_run(problem, np.ones(5), 1e3, 300, alone)
        [grouped] = grouped_outcomes(
            problem, "sgd", [dict(x0=np.ones(5), eta=1e3, steps=300, rng=member)]
        )
        assert trace.diverged_at == grouped.diverged_at == 3
        assert member.integers(1000) == alone.integers(1000)


class TestOneChargingRule:
    """Alone or in a group, a run charges each reset n as it happens and its
    sampled calls once, when it stops, so its counter ends at the
    closed-form calls of the steps it took: completed, diverged, or up to
    and including a reset whose gradient is not finite."""

    @staticmethod
    def assert_charged(counter, problem, algo, kw, steps):
        """``counter`` holds the resets of ``steps`` steps (period 10), each
        n, then the rest of their closed-form calls."""
        total = closed_form_oracle_calls(registry_spec(algo, kw), problem, steps)
        resets = 0 if algo in ("sgd", "adagrad_norm") else -(-steps // 10)
        assert counter.charges == [problem.n] * resets + [total - problem.n * resets]
        assert counter.component_calls == total

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("algo,batch", METHOD_BATCHES)
    def test_completed_and_diverged_runs(self, algo, batch, grouped):
        problem = Ramp(10)
        x0s = [np.array([optimizers.DIVERGENCE_LIMIT - 5.0]), np.zeros(1)]
        runs = group_runs(algo, [1.0, 1.0], x0s, 3, 300, 10, batch)
        outcomes, counters = counted(lambda: runs_or_group(problem, algo, runs, grouped))
        assert outcomes[0].diverged and not outcomes[1].diverged
        for trace, counter, kw in zip(outcomes, counters, runs):
            self.assert_charged(counter, problem, algo, kw, trace.num_steps)

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize(
        "algo,batch", [(a, b) for a, b in METHOD_BATCHES if a not in ("sgd", "adagrad_norm")]
    )
    def test_non_finite_reset(self, algo, batch, grouped):
        # the first member's fourth reset, at step 30, is not finite
        problem = Ramp(10, fault_at=4)
        runs = group_runs(algo, [1e-3, 1e-3], [np.ones(1), np.array([-1e6])], 4, 300, 10, batch)
        outcomes, counters = counted(lambda: runs_or_group(problem, algo, runs, grouped))
        assert isinstance(outcomes[0], NonFiniteGradientError)
        for steps, counter, kw in zip((31, 300), counters, runs):
            self.assert_charged(counter, problem, algo, kw, steps)


class Cliff(Ramp):
    """A Ramp whose component n has an infinite gradient at and past
    ``wall``, and which counts its ``mean_gradient`` calls."""

    def __init__(self, n: int, wall: float):
        super().__init__(n)
        self.wall, self.mean_calls = wall, 0

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.array([math.inf if i == self.n and x[0] >= self.wall else -1.0])

    def mean_gradient(self, x):
        self.mean_calls += 1
        return FiniteSumProblem.mean_gradient(self, x)


@pytest.mark.parametrize("algo", ["svrg", "adaspider", "spider", "spiderboost"])
@pytest.mark.parametrize("batch", [1, 3])
def test_faulting_resets_as_alone(algo, batch):
    # Members climb towards the wall at 5. The first never reaches it, the
    # third starts on it and faults at its first reset; the second and
    # fourth pass it later and fault at a reset, or diverge first where an
    # inner step samples component n past the wall.
    x0s = [np.array([v]) for v in (-1e6, 4.5, 5.0, 3.5)]
    runs = group_runs(algo, [1.0] * 4, x0s, 5, 40, 4, batch)
    alone, grouped = Cliff(10, 5.0), Cliff(10, 5.0)
    want, want_counters = counted(lambda: one_at_a_time(alone, algo, runs))
    got, got_counters = counted(lambda: grouped_outcomes(grouped, algo, runs))
    assert len(got_counters) == len(want_counters) == len(runs)
    assert [c.component_calls for c in got_counters] == [
        c.component_calls for c in want_counters
    ]
    assert want[0].num_steps == 40 and not want[0].diverged
    assert str(want[2]) == "non-finite gradient from component 10"
    assert sum(isinstance(w, NonFiniteGradientError) for w in want) >= 2
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert_same_trace(g, w)
    assert grouped.mean_calls == alone.mean_calls > 4


class SteepWall(FiniteSumProblem):
    """n components of slope 1 in one coordinate. Component i's gradient is
    infinite wherever x <= i - n - 1, so the first non-finite component of
    a full gradient depends on how far x has gone below -1."""

    def __init__(self, n: int):
        super().__init__(n=n, d=1)

    def component_value(self, i, x):
        return float(x[0])

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.array([math.inf if x[0] <= i - self.n - 1 else 1.0])


class TestFaultOrder:
    # Resets every step. An SVRG member k reaches x = -eta_k * t at step t;
    # an AdaSpider member's first step is scale_k / (10^(1/4) sqrt(sqrt(10)
    # g0^2 + 1)) long, with g0 = 0.5 + k. The first member stays clear of
    # the wall, the second meets it at step 1 at component 9, the third at
    # step 1 at component 10.
    ETAS = [0.01, 2.5, 1.5]

    @pytest.mark.parametrize("algo,scales", [("svrg", ETAS), ("adaspider", [0.01, 12.7, 12.2])])
    def test_faulting_members_stop_and_others_finish(self, algo, scales):
        runs = group_runs(algo, scales, [np.zeros(1)] * 3, 0, 6, 1, 1)
        outcomes = check_group(SteepWall(10), algo, runs)
        assert isinstance(outcomes[0], RunTrace) and outcomes[0].num_steps == 6
        assert [str(e) for e in outcomes[1:]] == [
            "non-finite gradient from component 9",
            "non-finite gradient from component 10",
        ]

    def test_first_member_in_sequence_order_raises(self, monkeypatch, tmp_path, capsys):
        problem = SteepWall(10)
        monkeypatch.setattr(harness, "build_problem", lambda spec: problem)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithms": [{"name": "svrg", "epoch_length": 1}]}))
        # what the runs, made one at a time in sweep order, raise first
        expected = None
        for eta in self.ETAS:
            for repeat in range(2):
                try:
                    svrg_run(problem, np.zeros(1), eta, 1, 6, harness._run_rng(0, "svrg", repeat))
                except NonFiniteGradientError as exc:
                    expected = expected or str(exc)
        assert expected == "non-finite gradient from component 9"
        grid = ",".join(map(str, self.ETAS))
        argv = ["sweep", "--algo", "svrg", "--config", str(config), "--grid", grid]
        code = main([*argv, "--steps", "6", "--repeats", "2"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {expected}\n"


def test_seeded_runs_raise_a_member_fault_at_its_turn():
    # both members start at x = 1; the group's second full gradient at a
    # positive point, the second member's only reset, is infinite
    problem, config = Ramp(10, fault_at=2), AdaSpiderConfig(steps=5)
    runs = verify._seeded_runs(problem, np.ones(1), config, (0, 1), True)
    assert next(runs).num_steps == 5
    with pytest.raises(NonFiniteGradientError, match="non-finite full gradient"):
        next(runs)


class DiagnosticCalls:
    """Counts of a problem's diagnostic calls: ``value``, ``metric_gradient``
    and ``metric_gradients`` made other than through ``metric_gradient``."""

    def __init__(self, problem):
        self.counts = {"value": 0, "metric_gradient": 0, "metric_gradients": 0}
        self.inside = False
        value, metric_gradient = problem.value, problem.metric_gradient
        metric_gradients = problem.metric_gradients

        def counted_value(x):
            self.counts["value"] += 1
            return value(x)

        def counted_metric_gradient(x):
            self.counts["metric_gradient"] += 1
            self.inside = True
            try:
                return metric_gradient(x)
            finally:
                self.inside = False

        def counted_metric_gradients(points):
            self.counts["metric_gradients"] += not self.inside
            return metric_gradients(points)

        problem.value = counted_value
        problem.metric_gradient = counted_metric_gradient
        problem.metric_gradients = counted_metric_gradients


class TestRowsAfterSteps:
    """Epoch rows are evaluated after the steps, point by point, by one
    function for runs alone and for group members."""

    @pytest.mark.parametrize("algo", ["svrg", "adaspider", "sgd"])
    def test_group_rows_take_one_metric_gradient_each(self, algo):
        problem = make_problem("logistic", 10, 3, 0)
        calls = DiagnosticCalls(problem)
        runs = group_runs(algo, [0.01, 0.1, 1.0], [np.zeros(3)] * 3, 0, 40, 5, 1)
        traces = grouped_outcomes(problem, algo, runs)
        rows = [len(trace.epoch_rows) for trace in traces]
        assert len(set(rows)) == 1 and rows[0] > 1
        assert all(math.isfinite(row.loss) for t in traces for row in t.epoch_rows)
        assert calls.counts == {
            "value": 3 * rows[0], "metric_gradient": 3 * rows[0], "metric_gradients": 0
        }

    def test_diverged_row_is_not_evaluated(self):
        problem = make_problem("squared", 10, 3, 1)
        calls = DiagnosticCalls(problem)
        runs = group_runs("sgd", [0.01, 1e8], [np.ones(3)] * 2, 5, 300, 5, 1)
        traces = grouped_outcomes(problem, "sgd", runs)
        assert [t.diverged for t in traces] == [False, True]
        assert math.isinf(traces[1].epoch_rows[-1].loss)
        finite = sum(len(t.epoch_rows) for t in traces) - 1
        assert calls.counts == {
            "value": finite, "metric_gradient": finite, "metric_gradients": 0
        }

    @pytest.mark.parametrize("grouped", [False, True])
    def test_run_whose_first_reset_faults_evaluates_nothing(self, grouped):
        problem = Ramp(10, fault_at=1)
        calls = DiagnosticCalls(problem)
        runs = group_runs("svrg", [1e-3, 1e-3], [np.ones(1), np.full(1, 2.0)], 4, 30, 10, 1)
        outcomes = runs_or_group(problem, "svrg", runs, grouped)
        assert all(isinstance(outcome, NonFiniteGradientError) for outcome in outcomes)
        assert calls.counts == {"value": 0, "metric_gradient": 0, "metric_gradients": 0}

    def test_trajectory_sweep_evaluates_one_gradient_a_run(self, monkeypatch):
        # ||grad f(x0)|| is the one diagnostic the trajectory bound reads
        made = []
        random = QuadraticProblem.random

        def counted_random(*args, **kwargs):
            problem = random(*args, **kwargs)
            made.append(DiagnosticCalls(problem))
            return problem

        monkeypatch.setattr(verify.QuadraticProblem, "random", counted_random)
        report = verify.sweep_trajectory_bound(6, np.random.default_rng(2))
        assert report.trials == len(made) == 6
        for calls in made:
            assert calls.counts == {"value": 0, "metric_gradient": 1, "metric_gradients": 0}

    def test_variance_check_evaluates_no_rows(self):
        problem = verify.default_variance_problem(3)
        calls = DiagnosticCalls(problem)
        report = verify.check_cumulative_variance(problem, AdaSpiderConfig(steps=40), range(50))
        assert report.trials == 50
        assert calls.counts == {"value": 0, "metric_gradient": 0, "metric_gradients": 0}

    def test_rate_check_evaluates_only_its_path_gradients(self):
        problem = verify.default_rate_problem()
        calls = DiagnosticCalls(problem)
        norms, paths = problem.metric_gradient_norms, []
        problem.metric_gradient_norms = lambda points: paths.append(len(points)) or norms(points)
        report = verify.check_rate_scaling(problem, (10, 20, 40), range(2))
        assert report.trials == 2
        # one call per seed, for the norms along its 40-step path
        assert paths == [40, 40]
        assert calls.counts == {"value": 0, "metric_gradient": 0, "metric_gradients": 0}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The SVRG sweep on squared loss diverges at the four largest grid values.
SQUARED_SVRG = {
    "problem": {"loss": "squared", "n": 48, "d": 6},
    "algorithms": [{"name": "svrg", "epoch_length": 20, "inner_batch": 3}],
    "epochs": 6,
    "repeats": 3,
}
RUN_CONFIG = {
    "problem": {"n": 64, "d": 10},
    "algorithms": [
        {"name": name}
        for name in ("adaspider", "spider", "spiderboost", "svrg", "sgd", "adagrad_norm")
    ],
    "epochs": 5,
    "repeats": 3,
}

# SHA-256 of (sweep summary on stdout, best-value CSV) of ``adaspider sweep``
# on the bundled default problem (logistic, n=64, d=10, 5 epochs, 5 repeats,
# seven grid values) and on SQUARED_SVRG, and of the CSV of ``adaspider run``
# on RUN_CONFIG; computed when every run was stepped on its own. The
# logistic ones were remade when ``sigmoid`` moved to numpy's exp.
SWEEP_GOLDEN = {
    ("sgd", None, 0): (
        "3e0aacbd31d5c76a4edc9360b5ddf2d0f1b34f8f3be3ef8f0ab513ae067e7851",
        "50925233e49bb0f961ea45e63c0b5e3b0c3afc676ed62afcf17df8cae60eb538",
    ),
    ("svrg", None, 0): (
        "cc48165a8fb39d85c67682f585b526bd151f2f13b3786577c1096d06e4a214d4",
        "8d18e6a583c91c5a599c9c6dadb673b3303e220fec90cd5dbaa880c2aeeb2447",
    ),
    ("adagrad_norm", None, 0): (
        "1b40460c7269f91bf591c7d9c3b448dcfa99c40caba2f2b2940838621acd89a4",
        "d07631a3cd65b21f6310b6b14d0b35ac5f4ec70f0cae867d9d4c1719286fb1cc",
    ),
    ("svrg", "squared", 0): (
        "a5e6719caa8329063493344e5e1411776cf147258e19150dfe87edc5cb45bb01",
        "aaf137715574a5960640617090f8fc7fadae00ba53d2711b9d5405d1cba7182a",
    ),
    ("sgd", None, 1729): (
        "c8ec0142421062ca3ffbb2117a42983138730313e255a3efd802b98d2de2475f",
        "8dc8b8dfd04e697b702245d944f8255beb53143278318c645a27e3261d164dd8",
    ),
    ("svrg", None, 1729): (
        "46f7451ba17e2ccfe58ae6109c00196c7aec1a1f1df01dac76c4ea21d0624ffa",
        "29d0f96d0345534b0565c8716a330bd227c03a5996e339833b67dafd1c9ce8c1",
    ),
    ("adagrad_norm", None, 1729): (
        "6449e98dad14eba4aa6113706b5989c76e0e6a0afb9dda9fa1f403b0c973eb05",
        "69dbcbd0011d486c13da2079f1959dc21d409899c8cfc14058389f966f3c2de4",
    ),
    ("svrg", "squared", 1729): (
        "8226591a92bc1a8444fb418b10812fb93a06e7b549e0da1d232e7208a4de42f4",
        "35a1c6cf346d7c18b533d21faf3d5e9cc36c61db6948bc1b6ea32647c1117fd3",
    ),
}
RUN_GOLDEN = {
    0: "83114a3c75f9ba4314b1bcb198c169a00ea2cd968e2407ab4da1e4bebe624ad3",
    1729: "2e56937d673fe89eda5f84e8ba371b169f0e969b885dc419b27d4fe899cc20e6",
}


@pytest.mark.parametrize("algo,config,seed", sorted(SWEEP_GOLDEN, key=str))
def test_golden_sweep(algo, config, seed, tmp_path, capsys):
    argv = ["sweep", "--algo", algo, "--seed", str(seed), "--out", str(tmp_path / "best.csv")]
    if config == "squared":
        (tmp_path / "config.json").write_text(json.dumps(SQUARED_SVRG))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 0
    summary = capsys.readouterr().out
    assert (sha256(summary.encode()), sha256((tmp_path / "best.csv").read_bytes())) == (
        SWEEP_GOLDEN[algo, config, seed]
    )


@pytest.mark.parametrize("seed", sorted(RUN_GOLDEN))
def test_golden_run_with_repeats(seed, tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(RUN_CONFIG))
    out = tmp_path / "records.csv"
    argv = ["run", "--config", str(tmp_path / "config.json"), "--seed", str(seed)]
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == RUN_GOLDEN[seed]


COMPARE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_optimizers.py"
# SHA-256 of the CSV of scripts/compare_optimizers.py at n=60, d=5, 3 epochs
# and 2 repeats: its SGD and SVRG sweeps step as lockstep groups, then the
# six algorithms' repeats.
COMPARE_GOLDEN = "5d499457cbd73a812c78be8669d2aa6b69c4744889b5ae4dd97b0d2ae2710d1c"


def test_comparison_script_golden_digest(tmp_path, monkeypatch, capsys):
    out = tmp_path / "comparison.csv"
    argv = ["--n", "60", "--d", "5", "--epochs", "3", "--repeats", "2", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", [str(COMPARE_SCRIPT), *argv])
    runpy.run_path(str(COMPARE_SCRIPT), run_name="__main__")
    assert sha256(out.read_bytes()) == COMPARE_GOLDEN


def test_harness_group_keeps_no_per_step_records(monkeypatch):
    # A 3-value sgd sweep x 2 repeats is one group of 6 members. Step sizes
    # and norms kept per step would take 6 * T * 16 bytes; epoch rows take
    # a point each per n = 1000 charged calls.
    steps = 8000
    problem = harness.build_problem(harness.ProblemSpec(n=1000, d=10))
    monkeypatch.setattr(harness, "build_problem", lambda spec: problem)
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(n=1000, d=10),
        algorithms=[AlgorithmSpec("sgd")],
        steps=steps,
        repeats=2,
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        _, trials = harness.sweep_step_size(config, "sgd", [0.01, 0.1, 1.0])
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert [len(r.rows) for trial in trials.values() for r in trial] == [8] * 6
    assert peak < 6 * steps * 16 / 2, peak
